//! Figures 16, 18, 19: the multi-modal bandwidth PDFs.
//!
//! These three figures motivate Swiftest's data-driven probing (§5.1):
//! for a given access technology, the bandwidth population "follows a
//! multi-modal Gaussian distribution" that is stable over weeks. This
//! module produces the histogram PDF and the GMM fitted from the
//! accumulated data — the exact model Swiftest loads.
//!
//! The accumulator carries *sufficient statistics only*: the linear
//! histogram the figure renders plus a log-bucketed [`LogBins`] the
//! binned EM fits ([`Gmm::fit_binned`]). No raw samples are retained, so
//! accumulator state is O(bins) regardless of record count, merges are
//! exact integer adds (thread-count and distributed-reduce invariant),
//! and `finish` costs O(bins × k × iters) instead of O(records).

use crate::accum::FigureAccumulator;
use crate::fitcache::FitCache;
use crate::summary::bounded_total;
use crate::Render;
use mbw_dataset::{AccessTech, RecordView, WifiStandard};
use mbw_frame::{fnv1a64, Codec, CodecError, Dec, Enc};
use mbw_stats::{Gmm, Histogram, LogBins, PoolCtx};
use std::fmt::Write as _;

/// A PDF figure: histogram density plus the fitted mixture.
#[derive(Debug, Clone)]
pub struct PdfFigure {
    /// Figure title.
    pub title: &'static str,
    /// Histogram over the plotted range.
    pub histogram: Histogram,
    /// GMM fitted from the same population (BIC-selected k ≤ 5).
    pub fit: Option<Gmm>,
    /// Number of samples.
    pub n: usize,
}

/// Which population a [`PdfAcc`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PdfFilter {
    Wifi5,
    Tech(AccessTech),
}

/// Bins of the rendered linear histogram (matches the paper's figures).
const RENDER_BINS: usize = 50;

/// BIC model-selection cap shared by all three PDF figures.
const MAX_COMPONENTS: usize = 5;

/// Accumulator behind Figs 16, 18 and 19: the rendered linear histogram
/// plus the log-bucketed fit statistics; the binned GMM fit runs in
/// `finish`.
#[derive(Debug, Clone)]
pub struct PdfAcc {
    title: &'static str,
    filter: PdfFilter,
    hi: f64,
    seed: u64,
    hist: Histogram,
    logbins: LogBins,
}

impl PdfAcc {
    fn new(title: &'static str, filter: PdfFilter, hi: f64, seed: u64) -> Self {
        Self {
            title,
            filter,
            hi,
            seed,
            hist: Histogram::new(0.0, hi, RENDER_BINS),
            logbins: LogBins::for_range(hi),
        }
    }

    /// Fig 16: WiFi 5 bandwidth PDF (modes at the 100/300/500 Mbps plans).
    pub fn fig16() -> Self {
        Self::new("Fig 16: WiFi 5 bandwidth PDF", PdfFilter::Wifi5, 1000.0, 16)
    }

    /// Fig 18: 4G bandwidth PDF.
    pub fn fig18() -> Self {
        Self::new(
            "Fig 18: 4G bandwidth PDF",
            PdfFilter::Tech(AccessTech::Cellular4g),
            500.0,
            18,
        )
    }

    /// Fig 19: 5G bandwidth PDF.
    pub fn fig19() -> Self {
        Self::new(
            "Fig 19: 5G bandwidth PDF",
            PdfFilter::Tech(AccessTech::Cellular5g),
            1000.0,
            19,
        )
    }

    /// The cache key for this accumulator's converged fit: `fnv1a64` over
    /// the `Codec` bytes, which cover the figure tag and every bin count
    /// — any observation that could change the fit changes the key.
    pub fn fit_key(&self) -> u64 {
        fnv1a64(&self.to_bytes())
    }

    /// Finish with an explicit pool context and optional fit cache.
    ///
    /// A cached mixture is only accepted after re-validation through
    /// [`Gmm::from_triples`]; a poisoned entry is rejected with a typed
    /// error inside the cache (counted, never trusted) and the fit is
    /// recomputed from the accumulator's own statistics.
    pub fn finish_on(self, ctx: &PoolCtx<'_, '_>, cache: Option<&FitCache>) -> PdfFigure {
        let n = self.hist.total() as usize;
        let fit = match cache {
            None => Gmm::fit_auto_binned(&self.logbins, MAX_COMPONENTS, self.seed, ctx).ok(),
            Some(cache) => {
                let key = self.fit_key();
                match cache.lookup(key) {
                    Ok(Some(gmm)) => Some(gmm),
                    // Miss — or a corrupt entry, already rejected and
                    // counted by the cache: refit and overwrite.
                    Ok(None) | Err(_) => {
                        let fit =
                            Gmm::fit_auto_binned(&self.logbins, MAX_COMPONENTS, self.seed, ctx)
                                .ok();
                        if let Some(gmm) = &fit {
                            cache.insert(key, gmm);
                        }
                        fit
                    }
                }
            }
        };
        PdfFigure {
            title: self.title,
            histogram: self.hist,
            fit,
            n,
        }
    }
}

impl<'a> FigureAccumulator<RecordView<'a>> for PdfAcc {
    type Output = PdfFigure;

    fn observe(&mut self, r: &RecordView<'a>) {
        let matches = match self.filter {
            PdfFilter::Wifi5 => r.wifi().map(|w| w.standard) == Some(WifiStandard::Wifi5),
            PdfFilter::Tech(t) => r.tech == t,
        };
        if matches {
            self.hist.add(r.bandwidth_mbps);
            self.logbins.add(r.bandwidth_mbps);
        }
    }

    fn merge(&mut self, other: Self) {
        self.hist.merge(&other.hist);
        self.logbins.merge(&other.logbins);
    }

    fn finish(self) -> PdfFigure {
        self.finish_on(&PoolCtx::serial(), None)
    }
}

impl Codec for PdfAcc {
    fn encode(&self, enc: &mut Enc) {
        // Title/filter/range/seed are structural — which of Figs
        // 16/18/19 this is — so they travel as one tag. The two count
        // vectors are the complete mergeable state.
        enc.put_u8(match self.filter {
            PdfFilter::Wifi5 => 0,
            PdfFilter::Tech(AccessTech::Cellular4g) => 1,
            PdfFilter::Tech(AccessTech::Cellular5g) => 2,
            PdfFilter::Tech(_) => unreachable!("no PDF figure for this tech"),
        });
        self.hist.counts().to_vec().encode(enc);
        self.logbins.counts().to_vec().encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acc = match dec.u8()? {
            0 => PdfAcc::fig16(),
            1 => PdfAcc::fig18(),
            2 => PdfAcc::fig19(),
            tag => {
                return Err(CodecError::BadTag {
                    what: "pdf figure",
                    tag: u64::from(tag),
                })
            }
        };
        let hist: Vec<u64> = Codec::decode(dec)?;
        let logbins: Vec<u64> = Codec::decode(dec)?;
        if hist.len() != acc.hist.bins() {
            return Err(CodecError::BadLen {
                what: "pdf histogram counts",
                len: hist.len() as u64,
            });
        }
        if logbins.len() != acc.logbins.counts().len() {
            return Err(CodecError::BadLen {
                what: "pdf log-bin counts",
                len: logbins.len() as u64,
            });
        }
        // Both constructors total their counts, and merge adds totals:
        // bound them here, where the bytes come in.
        bounded_total(&hist, "pdf histogram total")?;
        bounded_total(&logbins, "pdf log-bin total")?;
        acc.hist = Histogram::from_counts(0.0, acc.hi, hist);
        acc.logbins = LogBins::from_counts(acc.hi / 1e4, acc.hi, logbins);
        Ok(acc)
    }
}

impl Render for PdfFigure {
    fn render(&self) -> String {
        let mut out = format!("{} (n = {})\n", self.title, self.n);
        if let Some(fit) = &self.fit {
            let _ = writeln!(out, "fitted mixture (k = {}):", fit.k());
            let mut comps: Vec<_> = fit.components().to_vec();
            comps.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite"));
            for c in comps {
                let _ = writeln!(
                    out,
                    "  w = {:.2}  mu = {:>7.1} Mbps  sigma = {:>6.1}",
                    c.weight, c.mean, c.std_dev
                );
            }
        }
        for (x, d) in self.histogram.pdf() {
            let _ = writeln!(out, "{:>8.1} Mbps  pdf {:>9.6}", x, d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum;
    use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};

    fn y2021(tests: usize, seed: u64) -> Vec<TestRecord> {
        Generator::new(DatasetConfig {
            seed,
            tests,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn fig16_wifi5_is_multimodal_at_plan_values() {
        let records = y2021(300_000, 401);
        let fig = accum::run(PdfAcc::fig16(), &records);
        let fit = fig.fit.as_ref().expect("fit succeeds");
        assert!(fit.k() >= 3, "k = {}", fit.k());
        // At least one mode near each of 100 and 300 Mbps (the dominant
        // plan tiers of Fig 16).
        let modes = fit.modes();
        assert!(
            modes.iter().any(|&m| (m - 100.0).abs() < 40.0),
            "no ~100 mode in {modes:?}"
        );
        assert!(
            modes.iter().any(|&m| (m - 300.0).abs() < 60.0),
            "no ~300 mode in {modes:?}"
        );
    }

    #[test]
    fn fig18_and_19_fit_multimodal_models() {
        let records = y2021(400_000, 403);
        let f18 = accum::run(PdfAcc::fig18(), &records);
        let f19 = accum::run(PdfAcc::fig19(), &records);
        assert!(f18.fit.as_ref().unwrap().k() >= 2);
        assert!(f19.fit.as_ref().unwrap().k() >= 2);
        // 5G dominant mode sits in the few-hundred-Mbps region.
        let dom = f19.fit.as_ref().unwrap().dominant_mode();
        assert!((100.0..=450.0).contains(&dom), "dominant {dom}");
    }

    #[test]
    fn histogram_mass_is_normalised() {
        let records = y2021(100_000, 405);
        let fig = accum::run(PdfAcc::fig16(), &records);
        let mass: f64 = fig
            .histogram
            .pdf()
            .iter()
            .map(|(_, d)| d * fig.histogram.bin_width())
            .sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_halves_match_single_pass() {
        let records = y2021(90_000, 409);
        let (a, b) = records.split_at(records.len() / 2);
        let mut left = PdfAcc::fig19();
        let mut right = PdfAcc::fig19();
        for r in a {
            left.observe(&r.into());
        }
        for r in b {
            right.observe(&r.into());
        }
        left.merge(right);
        let merged = left.finish();
        let single = accum::run(PdfAcc::fig19(), &records);
        assert_eq!(merged.n, single.n);
        assert_eq!(merged.histogram.pdf(), single.histogram.pdf());
    }

    #[test]
    fn decode_rejects_bin_counts_that_would_overflow_a_total() {
        // `from_counts` totals its bins and `merge` adds totals: two
        // bins of u64::MAX must stop at decode, as a typed error.
        let acc = PdfAcc::fig19();
        let forge = |hist_bins: [u64; 2], log_bins: [u64; 2]| {
            let mut hist = acc.hist.counts().to_vec();
            hist[..2].copy_from_slice(&hist_bins);
            let mut logbins = acc.logbins.counts().to_vec();
            logbins[..2].copy_from_slice(&log_bins);
            let mut enc = Enc::new();
            enc.put_u8(2);
            hist.encode(&mut enc);
            logbins.encode(&mut enc);
            PdfAcc::from_bytes(&enc.into_bytes())
        };
        assert!(forge([3, 4], [5, 2]).is_ok());
        for (hist, logbins) in [
            ([u64::MAX, u64::MAX], [0, 0]),
            ([0, 0], [u64::MAX, u64::MAX]),
            ([crate::summary::COUNT_MAX, 1], [0, 0]),
        ] {
            assert!(
                matches!(forge(hist, logbins), Err(CodecError::BadLen { .. })),
                "{hist:?} {logbins:?}"
            );
        }
    }

    #[test]
    fn fit_keys_are_frozen_so_a_parent_fit_cache_still_hits() {
        // `PdfAcc` bytes did not change when the other accumulators went
        // to bounded summaries, so a `--fit-cache` file needs no layout
        // guard: these keys were generated at the commit before.
        let records = y2021(30_000, 0xF17);
        for (acc, key) in [
            (PdfAcc::fig16(), 0x5e3e_72cd_a1e3_e172_u64),
            (PdfAcc::fig18(), 0x9aad_ff92_2eda_8317),
            (PdfAcc::fig19(), 0x8ad7_6585_bf5e_c448),
        ] {
            let mut acc = acc;
            for r in &records {
                acc.observe(&r.into());
            }
            assert_eq!(acc.fit_key(), key, "{}", acc.title);
        }
    }

    #[test]
    fn render_contains_mixture_block() {
        let records = y2021(60_000, 407);
        let text = accum::run(PdfAcc::fig19(), &records).render();
        assert!(text.contains("fitted mixture"));
        assert!(text.contains("Mbps"));
    }
}
