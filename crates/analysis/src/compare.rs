//! Cross-ecosystem comparison reports.
//!
//! The measurement pipeline can run the same fused sweep over any
//! [`mbw_dataset::EcosystemProfile`]; this module lays the per-profile
//! [`MeasurementFigures`] side by side, one section per figure id, so a
//! single report answers "how does this figure change when the
//! ecosystem does?". The `figures` binary's `--profiles all` mode emits
//! one of these for every measurement figure id.

use crate::sweep::MeasurementFigures;

/// One ecosystem's finished figures, labelled with the profile that
/// produced them.
#[derive(Debug, Clone)]
pub struct ProfileFigures {
    /// Profile name (`paper-china`, `europe-ran`, …).
    pub profile: &'static str,
    /// The finished figure set for that ecosystem.
    pub figures: MeasurementFigures,
}

/// Strip the `profile: <name>` tag line the streaming engine prepends
/// to non-paper figures — inside a comparison the section header
/// already names the profile.
fn body_without_tag<'a>(text: &'a str, profile: &str) -> &'a str {
    let tag = format!("profile: {profile}\n");
    text.strip_prefix(tag.as_str()).unwrap_or(text)
}

/// Render one figure id across every profile, newest section format:
///
/// ```text
/// == fig04 =======================================================
/// -- paper-china --
/// <figure body>
/// -- europe-ran --
/// <figure body>
/// ```
///
/// Returns `None` when `id` is unknown to
/// [`MeasurementFigures::render`].
pub fn comparison_section(runs: &[ProfileFigures], id: &str) -> Option<String> {
    let mut out = format!(
        "== {id} {}\n",
        "=".repeat(60usize.saturating_sub(id.len() + 4))
    );
    let mut any = false;
    for run in runs {
        let text = run.figures.render(id)?;
        any = true;
        out.push_str(&format!("-- {} --\n", run.profile));
        let body = body_without_tag(&text, run.profile);
        out.push_str(body);
        if !body.ends_with('\n') {
            out.push('\n');
        }
    }
    any.then_some(out)
}

/// Render the full cross-ecosystem report: a header naming every
/// profile, then one [`comparison_section`] per id (unknown ids are
/// skipped).
pub fn comparison_report(runs: &[ProfileFigures], ids: &[&str]) -> String {
    let names: Vec<&str> = runs.iter().map(|r| r.profile).collect();
    let mut out = format!(
        "Cross-ecosystem comparison: {} profiles ({})\n\n",
        runs.len(),
        names.join(", ")
    );
    for id in ids {
        if let Some(section) = comparison_section(runs, id) {
            out.push_str(&section);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_figures_cached;
    use crate::sweep::SWEEP_IDS;
    use mbw_dataset::{DatasetConfig, EcosystemProfile, ShardPlan, Year};

    fn run_for(profile: &'static EcosystemProfile) -> ProfileFigures {
        let cfg = |year| DatasetConfig {
            seed: 0xC0DE,
            tests: 4_000,
            year,
            profile,
        };
        let plan = ShardPlan::new(512, 1);
        ProfileFigures {
            profile: profile.name,
            figures: stream_figures_cached(cfg(Year::Y2020), cfg(Year::Y2021), plan, None).0,
        }
    }

    #[test]
    fn report_sections_every_profile_under_every_id() {
        let runs = [
            run_for(EcosystemProfile::paper_china()),
            run_for(EcosystemProfile::europe_ran()),
        ];
        let report = comparison_report(&runs, &SWEEP_IDS);
        assert!(report.starts_with("Cross-ecosystem comparison: 2 profiles"));
        for id in SWEEP_IDS {
            assert!(
                report.contains(&format!("== {id} ")),
                "missing section {id}"
            );
        }
        assert_eq!(report.matches("-- paper-china --").count(), SWEEP_IDS.len());
        assert_eq!(report.matches("-- europe-ran --").count(), SWEEP_IDS.len());
        // The per-profile tag line is folded into the section header,
        // not repeated inside the body.
        assert!(!report.contains("profile: europe-ran"));
    }

    #[test]
    fn unknown_ids_are_skipped() {
        let runs = [run_for(EcosystemProfile::paper_china())];
        let report = comparison_report(&runs, &["fig01", "fig99"]);
        assert!(report.contains("== fig01 "));
        assert!(!report.contains("fig99"));
    }
}
