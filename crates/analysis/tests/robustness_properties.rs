//! Property and regression tests for `robustness::OutcomeRatesAcc`.
//!
//! The property: for *any* generated population, every outcome rate is
//! a valid probability and each row's rates partition its population
//! (complete + degraded + failed = 1). The regression pins one fixed
//! seed's exact rates so a silent change to the generator's fault model
//! or the tally shows up as a diff, not a drift.

use mbw_analysis::accum;
use mbw_analysis::robustness::OutcomeRatesAcc;
use mbw_dataset::{AccessTech, DatasetConfig, Generator, Year};
use proptest::prelude::*;

fn rates_for(seed: u64, tests: usize, year: Year) -> mbw_analysis::robustness::OutcomeRates {
    accum::run(
        OutcomeRatesAcc::new(),
        &Generator::new(DatasetConfig {
            seed,
            tests,
            year,
            ..Default::default()
        })
        .generate(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rates_are_probabilities_that_partition_each_row(
        seed in any::<u64>(),
        tests in 1usize..4_000,
        y2021 in any::<bool>(),
    ) {
        let year = if y2021 { Year::Y2021 } else { Year::Y2020 };
        let rates = rates_for(seed, tests, year);
        let mut row_total = 0u64;
        for row in rates.rows.iter().chain(std::iter::once(&rates.overall)) {
            for rate in [row.complete, row.degraded, row.failed] {
                prop_assert!((0.0..=1.0).contains(&rate), "{}: rate {rate}", row.tech.name());
            }
            prop_assert!(row.total > 0);
            let sum = row.complete + row.degraded + row.failed;
            prop_assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", row.tech.name());
        }
        for row in &rates.rows {
            row_total += row.total;
        }
        // 3G records feed the pooled totals but get no row of their own
        // (`TALLY_TECHS` keeps the three figure technologies as rows),
        // so the rows account for *at most* the pooled total.
        prop_assert!(row_total <= rates.overall.total);
        prop_assert_eq!(rates.overall.total, tests as u64);
    }
}

#[test]
fn fixed_seed_rates_are_pinned() {
    let rates = rates_for(0xD15EA5E, 50_000, Year::Y2021);
    assert_eq!(rates.overall.total, 50_000);
    let fmt = |row: &mbw_analysis::robustness::OutcomeRow| {
        format!(
            "{} {} {:.6} {:.6} {:.6}",
            row.tech.name(),
            row.total,
            row.complete,
            row.degraded,
            row.failed
        )
    };
    let of = |t: AccessTech| {
        rates
            .rows
            .iter()
            .find(|r| r.tech == t)
            .expect("row present")
    };
    assert_eq!(
        fmt(of(AccessTech::Cellular4g)),
        "4G 3476 0.966628 0.029056 0.004315"
    );
    assert_eq!(
        fmt(of(AccessTech::Cellular5g)),
        "5G 1823 0.963247 0.034558 0.002194"
    );
    assert_eq!(
        fmt(of(AccessTech::Wifi)),
        "WiFi 44663 0.985491 0.012404 0.002105"
    );
    assert_eq!(fmt(&rates.overall), "WiFi 50000 0.983340 0.014400 0.002260");
}
