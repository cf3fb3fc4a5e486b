//! Metric rows and the JSON line the driver reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Row {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Row {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// A number as JSON: all its digits, and never `NaN`/`inf`, which JSON
/// cannot carry (a kernel that divided by a zero time reports 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The run's result as the single JSON object the contract asks for.
pub fn result_json(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            row.name,
            json_number(row.value),
            row.unit
        );
    }
    out.push_str("}}");
    out
}

/// Rows as an aligned table for people.
pub fn table(rows: &[Row]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>16.6} {}",
            row.name, row.value, row.unit
        );
    }
    out
}
