//! Figures 1–3: the headline averages.
//!
//! - **Fig 1** — average 4G/5G/WiFi bandwidth, 2020 vs 2021: the paper's
//!   central surprise (4G 68→53, 5G 343→305, WiFi 132→137 Mbps).
//! - **Fig 2** — average bandwidth per Android version: the OS, not the
//!   hardware tier, statistically determines access bandwidth.
//! - **Fig 3** — average bandwidth per ISP: similar 4G everywhere,
//!   spread-out 5G (ISP-4's 700 MHz economy band; ISP-3's favourable N78
//!   range and wired investment).

use crate::accum::{self, FigureAccumulator, TECH3};
use crate::summary::{Mean, Sample};
use crate::Render;
use mbw_dataset::{AccessTech, Isp, TestRecord};
use std::fmt::Write as _;

/// Fig 1: year-over-year technology means.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig01 {
    /// `(tech, mean 2020, mean 2021)` for 4G, 5G, WiFi.
    pub rows: Vec<(AccessTech, f64, f64)>,
    /// Overall cellular mean (2G–5G pooled) per year — §3.1's consolation
    /// statistic (117 → 135 Mbps).
    pub overall_cellular: (f64, f64),
}

/// Accumulator behind [`Fig01`]. The only two-population overview
/// figure: the 2020 side is folded in via
/// [`Fig01Acc::observe_baseline`], the 2021 side via the trait's
/// `observe`.
#[derive(Debug, Clone, Default)]
pub struct Fig01Acc {
    tech_y20: [Mean; 3],
    tech_y21: [Mean; 3],
    cell_y20: Mean,
    cell_y21: Mean,
}

crate::mergeable! {
    Fig01Acc {
        tech_y20,
        tech_y21,
        cell_y20,
        cell_y21,
    }
}

/// Fold one record into one year's strata.
fn observe_year(tech: &mut [Mean; 3], cell: &mut Mean, r: &TestRecord) {
    let bw = Sample::new(r.bandwidth_mbps);
    if let Some(i) = accum::tech3_index(r.tech) {
        tech[i].push(bw);
    }
    if r.tech != AccessTech::Wifi {
        cell.push(bw);
    }
}

impl Fig01Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one 2020 (baseline) record in.
    pub fn observe_baseline(&mut self, r: &TestRecord) {
        observe_year(&mut self.tech_y20, &mut self.cell_y20, r);
    }
}

impl FigureAccumulator<TestRecord> for Fig01Acc {
    type Output = Fig01;

    fn observe(&mut self, r: &TestRecord) {
        observe_year(&mut self.tech_y21, &mut self.cell_y21, r);
    }

    fn finish(self) -> Fig01 {
        let rows = TECH3
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, self.tech_y20[i].mean(), self.tech_y21[i].mean()))
            .collect();
        Fig01 {
            rows,
            overall_cellular: (self.cell_y20.mean(), self.cell_y21.mean()),
        }
    }
}

impl Render for Fig01 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 1: average bandwidth by technology and year (Mbps)\n");
        let _ = writeln!(out, "{:<6} {:>8} {:>8}", "tech", "2020", "2021");
        for (tech, y20, y21) in &self.rows {
            let _ = writeln!(out, "{:<6} {:>8.1} {:>8.1}", tech.name(), y20, y21);
        }
        let _ = writeln!(
            out,
            "{:<6} {:>8.1} {:>8.1}   (2G-5G pooled)",
            "cell", self.overall_cellular.0, self.overall_cellular.1
        );
        out
    }
}

/// Fig 2: mean bandwidth per Android version, per technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02 {
    /// `(android_version, mean_4g, mean_5g, mean_wifi)` for versions 5–12.
    pub rows: Vec<(u8, f64, f64, f64)>,
}

/// Lowest Android version Fig 2 stratifies on.
const MIN_VERSION: u8 = 5;
/// Number of Android versions (5–12) Fig 2 covers.
const VERSIONS: usize = 8;

/// Accumulator behind [`Fig02`].
#[derive(Debug, Clone, Default)]
pub struct Fig02Acc {
    /// `[version - 5][tech3]` strata.
    cells: [[Mean; 3]; VERSIONS],
}

crate::mergeable! { Fig02Acc { cells } }

impl Fig02Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for Fig02Acc {
    type Output = Fig02;

    fn observe(&mut self, r: &TestRecord) {
        let Some(t) = accum::tech3_index(r.tech) else {
            return;
        };
        if (MIN_VERSION..MIN_VERSION + VERSIONS as u8).contains(&r.android_version) {
            self.cells[(r.android_version - MIN_VERSION) as usize][t]
                .push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn finish(self) -> Fig02 {
        let rows = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                (
                    MIN_VERSION + i as u8,
                    cell[0].mean(),
                    cell[1].mean(),
                    cell[2].mean(),
                )
            })
            .collect();
        Fig02 { rows }
    }
}

impl Render for Fig02 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 2: average bandwidth by Android version (Mbps)\n");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8}",
            "version", "4G", "5G", "WiFi"
        );
        for (v, g4, g5, wifi) in &self.rows {
            let _ = writeln!(out, "{:<8} {:>8.1} {:>8.1} {:>8.1}", v, g4, g5, wifi);
        }
        out
    }
}

/// Fig 3: mean bandwidth per ISP, per technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig03 {
    /// `(isp, mean_4g, mean_5g, mean_wifi)`.
    pub rows: Vec<(Isp, f64, f64, f64)>,
}

/// Accumulator behind [`Fig03`].
#[derive(Debug, Clone, Default)]
pub struct Fig03Acc {
    /// `[isp][tech3]` strata.
    cells: [[Mean; 3]; 4],
}

crate::mergeable! { Fig03Acc { cells } }

impl Fig03Acc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for Fig03Acc {
    type Output = Fig03;

    fn observe(&mut self, r: &TestRecord) {
        if let Some(t) = accum::tech3_index(r.tech) {
            self.cells[accum::isp_index(r.isp)][t].push(Sample::new(r.bandwidth_mbps));
        }
    }

    fn finish(self) -> Fig03 {
        let rows = Isp::ALL
            .iter()
            .enumerate()
            .map(|(i, &isp)| {
                let cell = &self.cells[i];
                (isp, cell[0].mean(), cell[1].mean(), cell[2].mean())
            })
            .collect();
        Fig03 { rows }
    }
}

impl Render for Fig03 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 3: average bandwidth by ISP (Mbps)\n");
        let _ = writeln!(out, "{:<6} {:>8} {:>8} {:>8}", "ISP", "4G", "5G", "WiFi");
        for (isp, g4, g5, wifi) in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>8.1} {:>8.1} {:>8.1}",
                isp.name(),
                g4,
                g5,
                wifi
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Mergeable;
    use mbw_dataset::{DatasetConfig, Generator, TestRecord, Year};
    use mbw_stats::descriptive::mean;

    fn fig01(y20: &[TestRecord], y21: &[TestRecord]) -> Fig01 {
        let mut acc = Fig01Acc::new();
        for r in y20 {
            acc.observe_baseline(r);
        }
        accum::run(acc, y21)
    }

    fn populations() -> (Vec<TestRecord>, Vec<TestRecord>) {
        let y20 = Generator::new(DatasetConfig {
            seed: 101,
            tests: 150_000,
            year: Year::Y2020,
            ..Default::default()
        })
        .generate();
        let y21 = Generator::new(DatasetConfig {
            seed: 101,
            tests: 150_000,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate();
        (y20, y21)
    }

    #[test]
    fn fig01_reproduces_the_counterintuitive_decline() {
        let (y20, y21) = populations();
        let fig = fig01(&y20, &y21);
        let row = |t: AccessTech| fig.rows.iter().find(|(x, _, _)| *x == t).unwrap();
        let (_, g4_20, g4_21) = row(AccessTech::Cellular4g);
        assert!(g4_20 > g4_21, "4G must decline: {g4_20} vs {g4_21}");
        assert!((g4_20 - 68.0).abs() < 12.0, "4G 2020 {g4_20}");
        assert!((g4_21 - 53.0).abs() < 8.0, "4G 2021 {g4_21}");
        let (_, g5_20, g5_21) = row(AccessTech::Cellular5g);
        assert!(g5_20 > g5_21, "5G must decline: {g5_20} vs {g5_21}");
        let (_, w20, w21) = row(AccessTech::Wifi);
        assert!((w21 / w20 - 1.0).abs() < 0.12, "WiFi ~flat: {w20} vs {w21}");
        // The consolation: overall cellular mean *rises* (117 → 135) as
        // the 5G user share doubles.
        assert!(
            fig.overall_cellular.1 > fig.overall_cellular.0,
            "overall cellular should rise: {:?}",
            fig.overall_cellular
        );
    }

    #[test]
    fn fig01_merge_matches_single_pass() {
        let (y20, y21) = populations();
        let single = fig01(&y20, &y21);
        // Split both populations in two and merge the halves.
        let mut a = Fig01Acc::new();
        let mut b = Fig01Acc::new();
        let (y20a, y20b) = y20.split_at(y20.len() / 2);
        let (y21a, y21b) = y21.split_at(y21.len() / 3);
        for r in y20a {
            a.observe_baseline(r);
        }
        for r in y21a {
            a.observe(r);
        }
        for r in y20b {
            b.observe_baseline(r);
        }
        for r in y21b {
            b.observe(r);
        }
        a.merge(b);
        assert_eq!(a.finish(), single);
    }

    #[test]
    fn fig02_bandwidth_rises_with_android_version() {
        let (_, y21) = populations();
        let fig = accum::run(Fig02Acc::new(), &y21);
        assert_eq!(fig.rows.len(), 8);
        // Compare v8 vs v12 for each technology (v5 strata are thin).
        let v8 = fig.rows.iter().find(|r| r.0 == 8).unwrap();
        let v12 = fig.rows.iter().find(|r| r.0 == 12).unwrap();
        assert!(v12.1 > v8.1, "4G: {} vs {}", v12.1, v8.1);
        assert!(v12.2 > v8.2, "5G: {} vs {}", v12.2, v8.2);
        assert!(v12.3 > v8.3, "WiFi: {} vs {}", v12.3, v8.3);
    }

    #[test]
    fn fig03_isp_structure() {
        let (_, y21) = populations();
        let fig = accum::run(Fig03Acc::new(), &y21);
        let row = |i: Isp| *fig.rows.iter().find(|(x, _, _, _)| *x == i).unwrap();
        let (_, _, isp4_5g, _) = row(Isp::Isp4);
        let (_, _, isp3_5g, isp3_wifi) = row(Isp::Isp3);
        let (_, _, isp1_5g, isp1_wifi) = row(Isp::Isp1);
        let (_, _, isp2_5g, isp2_wifi) = row(Isp::Isp2);
        // ISP-4's 700 MHz band gives obviously lower 5G bandwidth.
        assert!(
            isp4_5g < isp1_5g.min(isp2_5g).min(isp3_5g) * 0.6,
            "ISP-4 {isp4_5g}"
        );
        // ISP-3 leads both 5G and WiFi (§3.1).
        assert!(isp3_5g > isp1_5g && isp3_5g > isp2_5g);
        assert!(isp3_wifi > isp1_wifi && isp3_wifi > isp2_wifi);
        // 4G means are similar across the big three (mature infra).
        let g4: Vec<f64> = [Isp::Isp1, Isp::Isp2, Isp::Isp3]
            .iter()
            .map(|&i| row(i).1)
            .collect();
        let spread = (g4.iter().cloned().fold(0.0, f64::max)
            - g4.iter().cloned().fold(f64::INFINITY, f64::min))
            / mean(&g4);
        assert!(spread < 0.35, "4G spread {spread}");
    }

    #[test]
    fn renders_are_nonempty_tables() {
        let (y20, y21) = populations();
        for text in [
            fig01(&y20, &y21).render(),
            accum::run(Fig02Acc::new(), &y21).render(),
            accum::run(Fig03Acc::new(), &y21).render(),
        ] {
            assert!(text.lines().count() >= 4, "{text}");
        }
    }
}
