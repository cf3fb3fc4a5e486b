//! Tables 1 and 2, rendered from the static band data.

use crate::Render;
use mbw_dataset::bands::{LTE_BANDS, NR_BANDS};
use std::fmt::Write as _;

/// Table 1 rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1;

impl Render for Table1 {
    fn render(&self) -> String {
        let mut out = String::from("Table 1: the nine LTE bands, ordered by downlink spectrum\n");
        let _ = writeln!(
            out,
            "{:<6} {:<18} {:<14} {:<20} refarmed 2021",
            "band", "DL spectrum MHz", "max chan MHz", "ISPs"
        );
        for b in &LTE_BANDS {
            let isps: Vec<&str> = b.isps.iter().map(|i| i.name()).collect();
            let _ = writeln!(
                out,
                "{:<6} {:<18} {:<14} {:<20} {}",
                b.id.name(),
                format!("{:.0} – {:.0}", b.dl_mhz.0, b.dl_mhz.1),
                b.max_channel_mhz,
                isps.join(", "),
                if b.refarmed_2021 { "yes" } else { "no" }
            );
        }
        out
    }
}

/// Table 2 rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2;

impl Render for Table2 {
    fn render(&self) -> String {
        let mut out = String::from("Table 2: the five NR bands, ordered by downlink spectrum\n");
        let _ = writeln!(
            out,
            "{:<6} {:<18} {:<14} {:<20} {:<12} contiguous MHz",
            "band", "DL spectrum MHz", "max chan MHz", "ISPs", "origin"
        );
        for b in &NR_BANDS {
            let isps: Vec<&str> = b.isps.iter().map(|i| i.name()).collect();
            let _ = writeln!(
                out,
                "{:<6} {:<18} {:<14} {:<20} {:<12} {}",
                b.id.name(),
                format!("{:.0} – {:.0}", b.dl_mhz.0, b.dl_mhz.1),
                b.max_channel_mhz,
                isps.join(", "),
                b.refarmed_from.map(|l| l.name()).unwrap_or("dedicated"),
                b.contiguous_mhz
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_bands_with_spectrum() {
        let text = Table1.render();
        for b in &LTE_BANDS {
            assert!(text.contains(b.id.name()), "{text}");
        }
        assert!(text.contains("1805 – 1880"));
        assert!(text.contains("2496 – 2690"));
    }

    #[test]
    fn table2_lists_origins() {
        let text = Table2.render();
        assert!(text.contains("N78"));
        assert!(text.contains("dedicated"));
        assert!(text.contains("B41"));
        assert!(text.contains("3300 – 3800"));
    }
}
