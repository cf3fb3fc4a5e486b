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
use crate::summary::{decode_counts, MergeDecode};
use crate::Render;
use mbw_dataset::{AccessTech, TestRecord, WifiStandard};
use mbw_frame::{Codec, CodecError, Dec, Enc, Fnv1a64};
use mbw_stats::{Gmm, LogBins, PoolCtx};
use std::fmt::Write as _;

/// A PDF figure: histogram density plus the fitted mixture.
#[derive(Debug, Clone)]
pub struct PdfFigure {
    /// Figure title.
    pub title: &'static str,
    /// Upper end of the plotted range `[0, hi)`.
    pub hi: f64,
    /// Counts of the 50 equal-width bins over the range.
    pub counts: Vec<u64>,
    /// GMM fitted from the same population (BIC-selected k ≤ 5).
    pub fit: Option<Gmm>,
    /// Number of samples.
    pub n: usize,
}

impl PdfFigure {
    /// Width of one rendered bin, Mbps.
    pub fn bin_width(&self) -> f64 {
        self.hi / RENDER_BINS as f64
    }

    /// Normalised density series `(bin_center, pdf)` with
    /// `Σ pdf·width = 1`; all zeros when no sample was seen.
    pub fn pdf(&self) -> Vec<(f64, f64)> {
        let width = self.bin_width();
        let norm = if self.n == 0 {
            0.0
        } else {
            1.0 / (self.n as f64 * width)
        };
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i as f64 + 0.5) * width, c as f64 * norm))
            .collect()
    }
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
    /// 50 equal-width bins over `[0, hi)`; a value outside the range
    /// counts in the nearest end bin, so the occasional 1 032 Mbps
    /// outlier the paper reports still counts.
    counts: Vec<u64>,
    logbins: LogBins,
}

impl PdfAcc {
    fn new(title: &'static str, filter: PdfFilter, hi: f64, seed: u64) -> Self {
        Self {
            title,
            filter,
            hi,
            seed,
            counts: vec![0; RENDER_BINS],
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

    /// Which of Figs 16/18/19 this is, as the encoding tags it.
    fn tag(&self) -> u8 {
        match self.filter {
            PdfFilter::Wifi5 => 0,
            PdfFilter::Tech(AccessTech::Cellular4g) => 1,
            PdfFilter::Tech(AccessTech::Cellular5g) => 2,
            PdfFilter::Tech(_) => unreachable!("no PDF figure for this tech"),
        }
    }

    /// Fold in the two encoded count vectors after the tag. `finish`
    /// totals the histogram and `LogBins` its counts, and merge adds
    /// them: both are bounded here, where the bytes come in.
    fn merge_fields(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let counts = decode_counts(
            dec,
            RENDER_BINS,
            "pdf histogram counts",
            "pdf histogram total",
        )?;
        for (c, o) in self.counts.iter_mut().zip(counts) {
            *c += o;
        }
        self.logbins.merge_decoded(dec)
    }

    /// The cache key for this accumulator's converged fit: `fnv1a64` over
    /// the `Codec` bytes, which cover the figure tag and every bin count
    /// — any observation that could change the fit changes the key. The
    /// bytes are hashed as they are produced, never gathered.
    pub fn fit_key(&self) -> u64 {
        let mut hash = Fnv1a64::new();
        self.encoding(|bytes| hash.write(bytes));
        hash.finish()
    }

    /// Hand `put` the `Codec` bytes piece by piece, in order: the figure
    /// tag, then each count vector as its `Vec<u64>` encodes (a `u32`
    /// length, then every count, big-endian), read where it lies.
    fn encoding(&self, mut put: impl FnMut(&[u8])) {
        put(&[self.tag()]);
        for counts in [&self.counts[..], self.logbins.counts()] {
            put(&(counts.len() as u32).to_be_bytes());
            for count in counts {
                put(&count.to_be_bytes());
            }
        }
    }

    /// Finish, serving the fit from `cache` when it already holds one
    /// for this accumulator's content and feeding it otherwise.
    pub fn finish_on(self, cache: Option<&FitCache>) -> PdfFigure {
        let n = self.counts.iter().sum::<u64>() as usize;
        let fit_auto = || {
            Gmm::fit_auto_binned(&self.logbins, MAX_COMPONENTS, self.seed, &PoolCtx::serial()).ok()
        };
        let fit = match cache {
            None => fit_auto(),
            Some(cache) => {
                let key = self.fit_key();
                cache.lookup(key).or_else(|| {
                    let fit = fit_auto();
                    if let Some(gmm) = &fit {
                        cache.insert(key, gmm);
                    }
                    fit
                })
            }
        };
        PdfFigure {
            title: self.title,
            hi: self.hi,
            counts: self.counts,
            fit,
            n,
        }
    }
}

impl FigureAccumulator<TestRecord> for PdfAcc {
    type Output = PdfFigure;

    fn observe(&mut self, r: &TestRecord) {
        let matches = match self.filter {
            PdfFilter::Wifi5 => r.wifi().map(|w| w.standard) == Some(WifiStandard::Wifi5),
            PdfFilter::Tech(t) => r.tech == t,
        };
        if matches {
            let bin = (r.bandwidth_mbps / (self.hi / RENDER_BINS as f64)).floor();
            self.counts[(bin.max(0.0) as usize).min(RENDER_BINS - 1)] += 1;
            self.logbins.add(r.bandwidth_mbps);
        }
    }

    fn merge(&mut self, other: Self) {
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c += o;
        }
        self.logbins.merge(&other.logbins);
    }

    /// A sibling of another of Figs 16/18/19 is refused by its tag.
    fn merge_decoded(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let tag = dec.u8()?;
        if tag != self.tag() {
            return Err(CodecError::BadTag {
                what: "pdf figure",
                tag: u64::from(tag),
            });
        }
        self.merge_fields(dec)
    }

    fn finish(self) -> PdfFigure {
        self.finish_on(None)
    }
}

impl Codec for PdfAcc {
    fn encode(&self, enc: &mut Enc) {
        // Title/filter/range/seed are structural — which of Figs
        // 16/18/19 this is — so they travel as one tag. The two count
        // vectors are the complete mergeable state.
        self.encoding(|bytes| enc.put_bytes(bytes));
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
        acc.merge_fields(dec)?;
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
        for (x, d) in self.pdf() {
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
    fn the_fit_key_hashes_the_encoding_and_the_encoding_is_the_count_vectors() {
        let records = y2021(20_000, 405);
        for make in [PdfAcc::fig16, PdfAcc::fig18, PdfAcc::fig19] {
            let mut acc = make();
            let mut keys = Vec::new();
            for fill in [0, 1, 50, 2_000, records.len()] {
                let start = acc.counts.iter().sum::<u64>();
                for r in &records[..fill] {
                    acc.observe(r);
                }
                let bytes = acc.to_bytes();
                // What the encoding wrote when it copied the log bins
                // into a `Vec` of their own.
                let mut enc = Enc::new();
                enc.put_u8(acc.tag());
                acc.counts.encode(&mut enc);
                acc.logbins.counts().to_vec().encode(&mut enc);
                assert_eq!(bytes, enc.into_bytes(), "{} at {fill}", acc.title);
                assert_eq!(acc.fit_key(), mbw_frame::fnv1a64(&bytes), "{}", acc.title);
                if acc.counts.iter().sum::<u64>() > start {
                    keys.push(acc.fit_key());
                }
            }
            keys.dedup();
            assert!(keys.len() >= 2, "{}: the fills moved no key", acc.title);
        }
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
        let mass: f64 = fig.pdf().iter().map(|(_, d)| d * fig.bin_width()).sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_halves_match_single_pass() {
        let records = y2021(90_000, 409);
        let (a, b) = records.split_at(records.len() / 2);
        let mut left = PdfAcc::fig19();
        let mut right = PdfAcc::fig19();
        for r in a {
            left.observe(r);
        }
        for r in b {
            right.observe(r);
        }
        left.merge(right);
        let merged = left.finish();
        let single = accum::run(PdfAcc::fig19(), &records);
        assert_eq!(merged.n, single.n);
        assert_eq!(merged.pdf(), single.pdf());
    }

    #[test]
    fn decode_rejects_bin_counts_that_would_overflow_a_total() {
        // `finish` totals the bins and `merge` adds them: two bins of
        // u64::MAX must stop at decode, as a typed error.
        let acc = PdfAcc::fig19();
        let forge = |hist_bins: [u64; 2], log_bins: [u64; 2]| {
            let mut hist = acc.counts.clone();
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
    fn out_of_range_values_count_in_the_end_bins() {
        let mut record = y2021(2_000, 411)
            .into_iter()
            .find(|r| r.tech == AccessTech::Cellular5g)
            .expect("a 5G record");
        let mut acc = PdfAcc::fig19();
        assert!(acc.clone().finish().pdf().iter().all(|&(_, d)| d == 0.0));
        for mbps in [-5.0, 0.5, 999.9, 1_032.0] {
            record.bandwidth_mbps = mbps;
            acc.observe(&record);
        }
        assert_eq!((acc.counts[0], acc.counts[49]), (2, 2));
        assert_eq!(acc.counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn render_contains_mixture_block() {
        let records = y2021(60_000, 407);
        let text = accum::run(PdfAcc::fig19(), &records).render();
        assert!(text.contains("fitted mixture"));
        assert!(text.contains("Mbps"));
    }
}
