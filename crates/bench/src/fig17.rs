//! Fig 17: TCP slow-start / ramp-up time per congestion controller.
//!
//! The paper configured Cubic / Reno / BBR on production servers and
//! measured slow-start duration with `tcp_probe` across access
//! bandwidths. Here each data point is a `Ramp` campaign trial: the
//! round-based flow simulation over paths drawn with realistic RTTs,
//! spurious wireless loss, and a radio-scheduler ramp; the metric is
//! the time until the 50 ms goodput samples first reach 90% of the
//! link's nominal rate. All `(bandwidth, algorithm)` cells share one
//! seed stream (common random numbers).

use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::summary::{Mean, Sample};
use mbw_congestion::CcAlgorithm;
pub use mbw_core::campaign::BANDWIDTH_BINS;
use mbw_core::{CampaignPlan, EmptyCampaign, TrialKind, TrialView};
use std::fmt::Write as _;

/// Fig 17 data.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// `(bandwidth bin Mbps, algorithm, mean ramp-up seconds)`.
    pub rows: Vec<(f64, CcAlgorithm, f64)>,
}

impl Fig17 {
    /// Mean ramp time for one `(bin, algorithm)` cell.
    pub fn cell(&self, bin: f64, alg: CcAlgorithm) -> Option<f64> {
        self.rows
            .iter()
            .find(|(b, a, _)| *b == bin && *a == alg)
            .map(|(_, _, t)| *t)
    }

    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 17: TCP ramp-up time to 90% of capacity (seconds)\n");
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8}",
            "Mbps", "Cubic", "Reno", "BBR"
        );
        for &bin in &BANDWIDTH_BINS {
            let _ = writeln!(
                out,
                "{:<10} {:>8.2} {:>8.2} {:>8.2}",
                bin,
                self.cell(bin, CcAlgorithm::Cubic).unwrap_or(f64::NAN),
                self.cell(bin, CcAlgorithm::Reno).unwrap_or(f64::NAN),
                self.cell(bin, CcAlgorithm::Bbr).unwrap_or(f64::NAN),
            );
        }
        out
    }
}

fn alg_index(alg: CcAlgorithm) -> usize {
    CcAlgorithm::ALL
        .iter()
        .position(|&a| a == alg)
        .expect("algorithm in ALL")
}

/// Streaming reducer for Fig 17: the mean ramp time of each
/// `(bandwidth bin, algorithm)` cell of the campaign pool.
#[derive(Debug, Clone, Default)]
pub struct Fig17Acc {
    /// `cells[bin * 3 + alg]`.
    cells: [Mean; BANDWIDTH_BINS.len() * CcAlgorithm::ALL.len()],
}

mbw_analysis::mergeable! { Fig17Acc { cells } }

impl<'a> FigureAccumulator<TrialView<'a>> for Fig17Acc {
    type Output = Result<Fig17, EmptyCampaign>;

    fn observe(&mut self, r: &TrialView<'a>) {
        if let TrialKind::Ramp(alg, bin) = r.spec().kind {
            self.cells[bin as usize * CcAlgorithm::ALL.len() + alg_index(alg)]
                .push(Sample::new(r.solo().duration_s));
        }
    }

    fn finish(self) -> Self::Output {
        if self.cells.iter().all(Mean::is_empty) {
            return Err(EmptyCampaign);
        }
        let mut rows = Vec::new();
        for (b, &bin) in BANDWIDTH_BINS.iter().enumerate() {
            for (a, &alg) in CcAlgorithm::ALL.iter().enumerate() {
                rows.push((bin, alg, self.cells[b * CcAlgorithm::ALL.len() + a].mean()));
            }
        }
        Ok(Fig17 { rows })
    }
}

/// Add the Fig 17 trials to `plan`.
pub fn plan_fig17(plan: &mut CampaignPlan, paths_per_point: usize) {
    for alg in CcAlgorithm::ALL {
        for bin in 0..BANDWIDTH_BINS.len() {
            plan.push_series(
                TrialKind::Ramp(alg, bin as u8),
                mbw_core::campaign::RAMP_SCENARIO,
                paths_per_point,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_core::run_campaign;

    /// The full sweep with `paths_per_point` drawn paths per cell.
    fn fig17(paths_per_point: usize, seed: u64) -> Result<Fig17, EmptyCampaign> {
        let mut plan = CampaignPlan::new(seed);
        plan_fig17(&mut plan, paths_per_point);
        let pool = run_campaign(&plan, 1);
        crate::eval_sweep::reduce(Fig17Acc::default(), &pool)
    }

    #[test]
    fn fig17_shape_matches_paper() {
        let fig = fig17(12, 1700).expect("non-empty campaign");
        // 1. Ramp time grows with bandwidth for every algorithm.
        for alg in CcAlgorithm::ALL {
            let low = fig.cell(100.0, alg).unwrap();
            let high = fig.cell(1100.0, alg).unwrap();
            assert!(high > low, "{alg}: {low} !< {high}");
        }
        // 2. Cubic is obviously the slowest; BBR beats Reno (§5.1).
        for &bin in &[300.0, 700.0, 1100.0] {
            let cubic = fig.cell(bin, CcAlgorithm::Cubic).unwrap();
            let reno = fig.cell(bin, CcAlgorithm::Reno).unwrap();
            let bbr = fig.cell(bin, CcAlgorithm::Bbr).unwrap();
            assert!(cubic > reno, "{bin}: cubic {cubic} !> reno {reno}");
            assert!(reno > bbr, "{bin}: reno {reno} !> bbr {bbr}");
        }
        // 3. Magnitudes are whole seconds, eating a large fraction of a
        //    10 s flooding test (the §5.1 argument for dropping TCP).
        let bbr_100 = fig.cell(100.0, CcAlgorithm::Bbr).unwrap();
        assert!((0.3..=4.0).contains(&bbr_100), "BBR@100 {bbr_100}");
        let cubic_1100 = fig.cell(1100.0, CcAlgorithm::Cubic).unwrap();
        assert!(
            (2.0..=12.0).contains(&cubic_1100),
            "Cubic@1100 {cubic_1100}"
        );
    }

    #[test]
    fn render_mentions_all_algorithms() {
        let fig = fig17(3, 3).expect("non-empty campaign");
        let text = fig.render();
        for name in ["Cubic", "Reno", "BBR"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.lines().count() >= 1 + 1 + BANDWIDTH_BINS.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = fig17(3, 99).expect("non-empty");
        let b = fig17(3, 99).expect("non-empty");
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn empty_plan_is_a_typed_error() {
        assert_eq!(fig17(0, 1).unwrap_err(), EmptyCampaign);
    }
}
