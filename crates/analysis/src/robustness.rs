//! Test-outcome rates: how often crowdsourced tests complete cleanly.
//!
//! The paper's dataset is implicitly survivorship-filtered — a test that
//! dies mid-stream uploads nothing. With the resilience layer the
//! collection plugin *does* upload degraded and failed attempts (tagged
//! via [`OutcomeClass`]), so the analysis side can report failure rates
//! per technology and the modelling side can decide what to exclude.

use crate::accum::FigureAccumulator;
use crate::Render;
use mbw_dataset::{AccessTech, OutcomeClass, TestRecord};
use std::fmt::Write as _;

/// Per-technology outcome tallies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeRow {
    /// Technology the row describes.
    pub tech: AccessTech,
    /// Total records observed.
    pub total: u64,
    /// Fraction that completed cleanly.
    pub complete: f64,
    /// Fraction that finished with a degraded estimate.
    pub degraded: f64,
    /// Fraction that failed outright (no usable estimate).
    pub failed: f64,
}

/// Outcome-rate table across all technologies, plus the pooled rates.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRates {
    /// One row per technology present in the population.
    pub rows: Vec<OutcomeRow>,
    /// Pooled rates over the whole population.
    pub overall: OutcomeRow,
}

/// The per-technology tally order: the three figure technologies first
/// (they become rows), 3G last (it only feeds the pooled totals).
const TALLY_TECHS: [AccessTech; 4] = [
    AccessTech::Cellular4g,
    AccessTech::Cellular5g,
    AccessTech::Wifi,
    AccessTech::Cellular3g,
];

fn outcome_slot(outcome: OutcomeClass) -> usize {
    match outcome {
        OutcomeClass::Complete => 0,
        OutcomeClass::Degraded => 1,
        OutcomeClass::Failed => 2,
    }
}

fn row_from(tech: AccessTech, counts: [u64; 3]) -> OutcomeRow {
    let total: u64 = counts.iter().sum();
    let frac = |c: u64| {
        if total == 0 {
            0.0
        } else {
            c as f64 / total as f64
        }
    };
    OutcomeRow {
        tech,
        total,
        complete: frac(counts[0]),
        degraded: frac(counts[1]),
        failed: frac(counts[2]),
    }
}

/// Accumulator behind [`OutcomeRates`] — pure counters, fully
/// order-independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutcomeRatesAcc {
    /// `[tech in TALLY_TECHS order][outcome slot]`.
    counts: [[u64; 3]; 4],
}

crate::mergeable! { OutcomeRatesAcc { counts: count("outcome tallies") } }

impl OutcomeRatesAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FigureAccumulator<TestRecord> for OutcomeRatesAcc {
    type Output = OutcomeRates;

    fn observe(&mut self, r: &TestRecord) {
        if let Some(i) = TALLY_TECHS.iter().position(|&t| t == r.tech) {
            self.counts[i][outcome_slot(r.outcome)] += 1;
        }
    }

    fn finish(self) -> OutcomeRates {
        let rows = TALLY_TECHS[..3]
            .iter()
            .zip(self.counts)
            .map(|(&t, counts)| row_from(t, counts))
            .filter(|row| row.total > 0)
            .collect();
        let mut pooled = [0u64; 3];
        for counts in self.counts {
            for (a, b) in pooled.iter_mut().zip(counts) {
                *a += b;
            }
        }
        OutcomeRates {
            rows,
            overall: row_from(AccessTech::Wifi, pooled),
        }
    }
}

impl Render for OutcomeRates {
    fn render(&self) -> String {
        let mut out = String::from("Test outcomes by technology (fractions)\n");
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>9} {:>9}",
            "tech", "total", "complete", "degraded", "failed"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>9} {:>9.4} {:>9.4} {:>9.4}",
                row.tech.name(),
                row.total,
                row.complete,
                row.degraded,
                row.failed
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9.4} {:>9.4} {:>9.4}",
            "all",
            self.overall.total,
            self.overall.complete,
            self.overall.degraded,
            self.overall.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum;
    use crate::summary::Mergeable;
    use mbw_dataset::{DatasetConfig, Generator, Year};
    use mbw_frame::{Codec, CodecError};

    #[test]
    fn outcome_rates_reflect_the_generator_fault_model() {
        let records = Generator::new(DatasetConfig {
            seed: 0x0C0,
            tests: 120_000,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate();
        let rates = accum::run(OutcomeRatesAcc::new(), &records);
        assert_eq!(rates.overall.total, records.len() as u64);
        // Every technology present, fractions sum to one.
        assert_eq!(rates.rows.len(), 3);
        for row in &rates.rows {
            let sum = row.complete + row.degraded + row.failed;
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", row.tech.name());
            assert!(
                row.complete > 0.9,
                "{}: complete {}",
                row.tech.name(),
                row.complete
            );
            assert!(
                row.failed < 0.02,
                "{}: failed {}",
                row.tech.name(),
                row.failed
            );
        }
        // Cellular tests fail more often than WiFi (the generator's fault
        // model mirrors the flakier radio path).
        let of = |t: AccessTech| *rates.rows.iter().find(|r| r.tech == t).unwrap();
        assert!(
            of(AccessTech::Cellular5g).failed > of(AccessTech::Wifi).failed,
            "cellular should fail more than wifi"
        );
        let text = rates.render();
        assert!(text.contains("complete"), "{text}");
        assert!(text.lines().count() >= 5, "{text}");

        // Merged shards agree exactly with the single pass.
        let (a, b) = records.split_at(records.len() / 2);
        let mut left = OutcomeRatesAcc::new();
        let mut right = OutcomeRatesAcc::new();
        for r in a {
            left.observe(r);
        }
        for r in b {
            right.observe(r);
        }
        left.merge(right);
        assert_eq!(left.finish(), rates);
    }

    #[test]
    fn decode_rejects_tallies_that_would_overflow_a_total() {
        let forge = |first: u64, second: u64| {
            let mut counts = [[0u64; 3]; 4];
            (counts[0][0], counts[3][2]) = (first, second);
            OutcomeRatesAcc::from_bytes(&counts.to_bytes())
        };
        let mut ok = forge(7, 9).unwrap();
        ok.merge(forge(1, 1).unwrap());
        assert_eq!(ok.finish().overall.total, 18);
        assert!(matches!(
            forge(u64::MAX, u64::MAX),
            Err(CodecError::BadLen { .. })
        ));
        assert!(matches!(
            forge(crate::summary::COUNT_MAX, 1),
            Err(CodecError::BadLen { .. })
        ));
    }

    #[test]
    fn an_empty_population_renders_without_panicking() {
        let rates = accum::run(OutcomeRatesAcc::new(), &[]);
        assert!(rates.rows.is_empty());
        assert_eq!(rates.overall.total, 0);
        assert_eq!(rates.overall.complete, 0.0);
        let _ = rates.render();
    }
}
