//! Plain-text CSV export/import of [`TestRecord`]s.
//!
//! The paper's artifact releases its evaluation data as flat files; this
//! module does the same for the synthetic population, with no
//! serialisation dependency: one header line, one row per record, cell
//! and WiFi context flattened into a sparse column set.
//!
//! [`CsvWriter`] / [`CsvReader`] stream rows through any `io::Write` /
//! `io::BufRead`, so a 10M-record file is processed at constant memory
//! (one row buffered at a time); a whole document in memory is a
//! `CsvWriter` over a `Vec<u8>`.
//!
//! The trailing `profile` column records which [`EcosystemProfile`]
//! generated the rows — pure provenance, like the BENCH JSON
//! `runner_class` field. Records
//! themselves are profile-agnostic, so the parser validates the column
//! is present but does not store it.
//!
//! The reader parses files this process did not write, so outside tests
//! the module denies `unwrap`, `expect` and `panic!`: a malformed file
//! must come back as a typed [`CsvStreamError`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::profile::EcosystemProfile;
use crate::types::*;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// The CSV header, in column order.
pub const HEADER: &str = "bandwidth_mbps,tech,isp,year,city_id,city_tier,urban,hour,\
android_version,device_model,device_tier,link_kind,band,rss_level,rss_dbm,snr_db,bs_id,\
arfcn,lte_advanced,wifi_standard,on_5ghz,plan_mbps,ap_id,mac_rate_mbps,neighbor_aps,outcome,\
profile";

/// Number of columns in [`HEADER`].
pub const COLUMNS: usize = 27;

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The header line did not match [`HEADER`].
    BadHeader,
    /// A row had the wrong number of columns.
    ColumnCount {
        /// 1-based line number.
        line: usize,
        /// Columns found on the line.
        got: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// The offending column.
        column: &'static str,
        /// The raw field value.
        value: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "unrecognised CSV header"),
            CsvError::ColumnCount { line, got } => {
                write!(f, "line {line}: expected {COLUMNS} columns, got {got}")
            }
            CsvError::BadField {
                line,
                column,
                value,
            } => {
                write!(f, "line {line}: bad {column}: {value:?}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Errors from the streaming reader: either the underlying transport
/// failed or a row failed to parse.
#[derive(Debug)]
pub enum CsvStreamError {
    /// The underlying reader returned an I/O error.
    Io(io::Error),
    /// A line was read but did not parse.
    Parse(CsvError),
}

impl std::fmt::Display for CsvStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvStreamError::Io(e) => write!(f, "csv stream i/o error: {e}"),
            CsvStreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvStreamError::Io(e) => Some(e),
            CsvStreamError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for CsvStreamError {
    fn from(e: io::Error) -> Self {
        CsvStreamError::Io(e)
    }
}

impl From<CsvError> for CsvStreamError {
    fn from(e: CsvError) -> Self {
        CsvStreamError::Parse(e)
    }
}

fn tech_str(t: AccessTech) -> &'static str {
    match t {
        AccessTech::Cellular3g => "3g",
        AccessTech::Cellular4g => "4g",
        AccessTech::Cellular5g => "5g",
        AccessTech::Wifi => "wifi",
    }
}

fn isp_str(i: Isp) -> &'static str {
    match i {
        Isp::Isp1 => "isp1",
        Isp::Isp2 => "isp2",
        Isp::Isp3 => "isp3",
        Isp::Isp4 => "isp4",
    }
}

fn band_str(b: CellBand) -> &'static str {
    match b {
        CellBand::Lte(l) => l.name(),
        CellBand::Nr(n) => n.name(),
    }
}

/// Append one record's CSV row (with trailing newline) to `out`,
/// stamped with the generating profile's name as provenance.
fn write_row(out: &mut String, r: &TestRecord, profile: &str) {
    let tier = match r.city_tier {
        CityTier::Mega => "mega",
        CityTier::Medium => "medium",
        CityTier::Small => "small",
    };
    let dtier = match r.device_tier {
        DeviceTier::Low => "low",
        DeviceTier::Mid => "mid",
        DeviceTier::High => "high",
    };
    let year = match r.year {
        Year::Y2020 => "2020",
        Year::Y2021 => "2021",
    };
    let _ = write!(
        out,
        "{:.3},{},{},{},{},{},{},{},{},{},{}",
        r.bandwidth_mbps,
        tech_str(r.tech),
        isp_str(r.isp),
        year,
        r.city_id,
        tier,
        r.urban as u8,
        r.hour,
        r.android_version,
        r.device_model,
        dtier
    );
    let outcome = r.outcome.label();
    match r.link {
        LinkInfo::Cell(c) => {
            let _ = writeln!(
                out,
                ",cell,{},{},{:.1},{:.1},{},{},{},,,,,,,{outcome},{profile}",
                band_str(c.band),
                c.rss_level,
                c.rss_dbm,
                c.snr_db,
                c.bs_id,
                c.arfcn,
                c.lte_advanced as u8
            );
        }
        LinkInfo::Wifi(w) => {
            let std = match w.standard {
                WifiStandard::Wifi4 => "wifi4",
                WifiStandard::Wifi5 => "wifi5",
                WifiStandard::Wifi6 => "wifi6",
            };
            let _ = writeln!(
                out,
                ",wifi,,,,,,,,{},{},{:.0},{},{:.1},{},{outcome},{profile}",
                std, w.on_5ghz as u8, w.plan_mbps, w.ap_id, w.mac_rate_mbps, w.neighbor_aps
            );
        }
    }
}

/// Streaming CSV serialiser: writes the header on construction, then
/// one row per [`CsvWriter::write_record`] call, buffering a single row
/// at a time.
pub struct CsvWriter<W: Write> {
    out: W,
    row: String,
    profile: String,
}

impl<W: Write> CsvWriter<W> {
    /// Wrap `out` and emit the header line; rows carry the default
    /// paper profile in their `profile` column.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_profile(out, EcosystemProfile::paper_china().name)
    }

    /// Wrap `out` and emit the header line; every row's `profile`
    /// column records `profile` as generation provenance.
    pub fn with_profile(mut out: W, profile: &str) -> io::Result<Self> {
        out.write_all(HEADER.as_bytes())?;
        out.write_all(b"\n")?;
        Ok(Self {
            out,
            row: String::with_capacity(128),
            profile: profile.to_string(),
        })
    }

    /// Write one record.
    pub fn write_record(&mut self, r: &TestRecord) -> io::Result<()> {
        self.row.clear();
        write_row(&mut self.row, r, &self.profile);
        self.out.write_all(self.row.as_bytes())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

fn parse<T: std::str::FromStr>(s: &str, line: usize, column: &'static str) -> Result<T, CsvError> {
    s.parse().map_err(|_| CsvError::BadField {
        line,
        column,
        value: s.to_string(),
    })
}

fn parse_lte_band(s: &str) -> Option<LteBandId> {
    LteBandId::ALL.into_iter().find(|b| b.name() == s)
}

fn parse_nr_band(s: &str) -> Option<NrBandId> {
    NrBandId::ALL.into_iter().find(|b| b.name() == s)
}

/// Parse one data row (`line` is its 1-based line number, for errors).
fn parse_row(raw: &str, line: usize) -> Result<TestRecord, CsvError> {
    let cols: Vec<&str> = raw.split(',').collect();
    if cols.len() != COLUMNS {
        return Err(CsvError::ColumnCount {
            line,
            got: cols.len(),
        });
    }
    let tech = match cols[1] {
        "3g" => AccessTech::Cellular3g,
        "4g" => AccessTech::Cellular4g,
        "5g" => AccessTech::Cellular5g,
        "wifi" => AccessTech::Wifi,
        other => {
            return Err(CsvError::BadField {
                line,
                column: "tech",
                value: other.into(),
            })
        }
    };
    let isp = match cols[2] {
        "isp1" => Isp::Isp1,
        "isp2" => Isp::Isp2,
        "isp3" => Isp::Isp3,
        "isp4" => Isp::Isp4,
        other => {
            return Err(CsvError::BadField {
                line,
                column: "isp",
                value: other.into(),
            })
        }
    };
    let year = match cols[3] {
        "2020" => Year::Y2020,
        "2021" => Year::Y2021,
        other => {
            return Err(CsvError::BadField {
                line,
                column: "year",
                value: other.into(),
            })
        }
    };
    let city_tier = match cols[5] {
        "mega" => CityTier::Mega,
        "medium" => CityTier::Medium,
        "small" => CityTier::Small,
        other => {
            return Err(CsvError::BadField {
                line,
                column: "city_tier",
                value: other.into(),
            })
        }
    };
    let device_tier = match cols[10] {
        "low" => DeviceTier::Low,
        "mid" => DeviceTier::Mid,
        "high" => DeviceTier::High,
        other => {
            return Err(CsvError::BadField {
                line,
                column: "device_tier",
                value: other.into(),
            })
        }
    };
    let link = match cols[11] {
        "cell" => {
            let band_name = cols[12];
            let band = parse_lte_band(band_name)
                .map(CellBand::Lte)
                .or_else(|| parse_nr_band(band_name).map(CellBand::Nr))
                .ok_or_else(|| CsvError::BadField {
                    line,
                    column: "band",
                    value: band_name.into(),
                })?;
            LinkInfo::Cell(CellInfo {
                band,
                rss_level: parse(cols[13], line, "rss_level")?,
                rss_dbm: parse(cols[14], line, "rss_dbm")?,
                snr_db: parse(cols[15], line, "snr_db")?,
                bs_id: parse(cols[16], line, "bs_id")?,
                arfcn: parse(cols[17], line, "arfcn")?,
                lte_advanced: cols[18] == "1",
            })
        }
        "wifi" => {
            let standard = match cols[19] {
                "wifi4" => WifiStandard::Wifi4,
                "wifi5" => WifiStandard::Wifi5,
                "wifi6" => WifiStandard::Wifi6,
                other => {
                    return Err(CsvError::BadField {
                        line,
                        column: "wifi_standard",
                        value: other.into(),
                    })
                }
            };
            LinkInfo::Wifi(WifiInfo {
                standard,
                on_5ghz: cols[20] == "1",
                plan_mbps: parse(cols[21], line, "plan_mbps")?,
                ap_id: parse(cols[22], line, "ap_id")?,
                mac_rate_mbps: parse(cols[23], line, "mac_rate_mbps")?,
                neighbor_aps: parse(cols[24], line, "neighbor_aps")?,
            })
        }
        other => {
            return Err(CsvError::BadField {
                line,
                column: "link_kind",
                value: other.into(),
            })
        }
    };
    let outcome = OutcomeClass::from_label(cols[25]).ok_or_else(|| CsvError::BadField {
        line,
        column: "outcome",
        value: cols[25].into(),
    })?;
    // cols[26] is the profile provenance stamp: validated by the column
    // count above, not stored (records are profile-agnostic).
    Ok(TestRecord {
        bandwidth_mbps: parse(cols[0], line, "bandwidth_mbps")?,
        tech,
        isp,
        year,
        city_id: parse(cols[4], line, "city_id")?,
        city_tier,
        urban: cols[6] == "1",
        hour: parse(cols[7], line, "hour")?,
        android_version: parse(cols[8], line, "android_version")?,
        device_model: parse(cols[9], line, "device_model")?,
        device_tier,
        link,
        outcome,
    })
}

/// Streaming CSV parser: validates the header on construction, then
/// yields one record per data line, buffering a single line at a time.
///
/// Empty lines are skipped; error line numbers are physical 1-based
/// line numbers including the header. Parse errors are per-row —
/// iteration continues so the caller decides whether to tolerate them —
/// but an I/O error ends the stream: the transport is gone, and
/// retrying the same read would yield errors forever.
pub struct CsvReader<R: BufRead> {
    input: R,
    line_buf: String,
    /// Physical line number of the most recently read line.
    line: usize,
    /// Set once the underlying reader fails; the iterator is fused.
    failed: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wrap `input` and consume + validate the header line.
    pub fn new(mut input: R) -> Result<Self, CsvStreamError> {
        let mut header = String::new();
        input.read_line(&mut header)?;
        if header.trim_end_matches(['\n', '\r']).trim() != HEADER {
            return Err(CsvError::BadHeader.into());
        }
        Ok(Self {
            input,
            line_buf: String::with_capacity(128),
            line: 1,
            failed: false,
        })
    }
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<TestRecord, CsvStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.line_buf.clear();
            match self.input.read_line(&mut self.line_buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
            }
            self.line += 1;
            let raw = self.line_buf.trim_end_matches(['\n', '\r']);
            if raw.trim().is_empty() {
                continue;
            }
            return Some(parse_row(raw, self.line).map_err(CsvStreamError::from));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DatasetConfig, Generator};
    use mbw_stats::descriptive;

    fn sample(tests: usize) -> Vec<TestRecord> {
        Generator::new(DatasetConfig {
            seed: 0xC57,
            tests,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate()
    }

    /// `records` as one document, stamped by `CsvWriter::new`.
    fn write(records: &[TestRecord]) -> String {
        let mut writer = CsvWriter::new(Vec::new()).expect("header written");
        for r in records {
            writer.write_record(r).expect("row written");
        }
        String::from_utf8(writer.into_inner().expect("flushes")).unwrap()
    }

    /// Every record of a document, or its first error.
    fn read(doc: &str) -> Result<Vec<TestRecord>, CsvStreamError> {
        CsvReader::new(doc.as_bytes())?.collect()
    }

    #[test]
    fn roundtrip_preserves_population_statistics() {
        let records = sample(5_000);
        let parsed = read(&write(&records)).expect("roundtrip parses");
        assert_eq!(parsed.len(), records.len());
        // Float columns are rounded in the CSV, so compare aggregates.
        let m1 = descriptive::mean(&records.iter().map(|r| r.bandwidth_mbps).collect::<Vec<_>>());
        let m2 = descriptive::mean(&parsed.iter().map(|r| r.bandwidth_mbps).collect::<Vec<_>>());
        assert!((m1 - m2).abs() < 0.01);
        // Categorical columns roundtrip exactly.
        for (a, b) in records.iter().zip(&parsed) {
            assert_eq!(a.tech, b.tech);
            assert_eq!(a.isp, b.isp);
            assert_eq!(a.city_id, b.city_id);
            assert_eq!(a.device_tier, b.device_tier);
            assert_eq!(a.urban, b.urban);
            assert_eq!(a.outcome, b.outcome);
            match (&a.link, &b.link) {
                (LinkInfo::Cell(x), LinkInfo::Cell(y)) => {
                    assert_eq!(x.band, y.band);
                    assert_eq!(x.rss_level, y.rss_level);
                    assert_eq!(x.arfcn, y.arfcn);
                }
                (LinkInfo::Wifi(x), LinkInfo::Wifi(y)) => {
                    assert_eq!(x.standard, y.standard);
                    assert_eq!(x.on_5ghz, y.on_5ghz);
                    assert_eq!(x.plan_mbps, y.plan_mbps);
                    assert_eq!(x.neighbor_aps, y.neighbor_aps);
                }
                _ => panic!("link kind changed in roundtrip"),
            }
        }
    }

    #[test]
    fn header_mismatch_is_an_error() {
        assert!(matches!(
            CsvReader::new("foo,bar\n1,2\n".as_bytes()),
            Err(CsvStreamError::Parse(CsvError::BadHeader))
        ));
    }

    #[test]
    fn column_count_is_checked() {
        let doc = format!("{HEADER}\n1,2,3\n");
        assert!(matches!(
            read(&doc),
            Err(CsvStreamError::Parse(CsvError::ColumnCount {
                line: 2,
                got: 3
            }))
        ));
    }

    #[test]
    fn bad_fields_are_located() {
        let doc = write(&sample(1));
        // Corrupt the ISP column on the data row, not the header.
        let (header, body) = doc.split_once('\n').expect("header line");
        let doc = format!("{header}\n{}", body.replacen("isp", "xsp", 1));
        match read(&doc) {
            Err(CsvStreamError::Parse(CsvError::BadField {
                line: 2, column, ..
            })) => {
                assert_eq!(column, "isp");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_lines_are_skipped() {
        let doc = format!("{}\n\n", write(&sample(3)));
        assert_eq!(read(&doc).unwrap().len(), 3);
    }

    #[test]
    fn profile_column_is_provenance() {
        let records = sample(50);
        // Default writers stamp the paper profile...
        let default = write(&records);
        for row in default.lines().skip(1) {
            assert!(row.ends_with(",paper-china"), "row missing stamp: {row}");
        }
        // ...explicit writers stamp their own profile...
        let mut writer = CsvWriter::with_profile(Vec::new(), "europe-ran").expect("header");
        for r in &records {
            writer.write_record(r).expect("row written");
        }
        let doc = String::from_utf8(writer.into_inner().expect("flushes")).unwrap();
        for row in doc.lines().skip(1) {
            assert!(row.ends_with(",europe-ran"), "row missing stamp: {row}");
        }
        // ...and the stamp is dropped on parse: both documents decode
        // to identical records (floats are rounded by the codec, so
        // compare parse-to-parse rather than to the originals).
        assert_eq!(read(&doc).expect("parses"), read(&default).expect("parses"));
    }

    #[test]
    fn csv_has_one_line_per_record_plus_header() {
        assert_eq!(write(&sample(100)).lines().count(), 101);
    }
}
