//! The row cursor the analysis layer consumes.
//!
//! [`RecordView`] is a `Copy` bundle of a record's scalar fields plus a
//! borrow of its link context, and is the type every figure accumulator
//! observes: the figure code never names the storage the records came
//! from.

use crate::types::*;

/// A borrowed, cheap view of one record.
///
/// All scalar fields are copied out (they are at most 8 bytes each);
/// the variant-sized link context stays behind a reference. Built
/// from a `&TestRecord` via `From`.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Measured downlink bandwidth in Mbps.
    pub bandwidth_mbps: f64,
    /// Access technology of the test.
    pub tech: AccessTech,
    /// Mobile/fixed ISP serving the test.
    pub isp: Isp,
    /// Measurement year.
    pub year: Year,
    /// City the test ran in.
    pub city_id: u16,
    /// Tier of that city.
    pub city_tier: CityTier,
    /// Urban (vs rural) test location.
    pub urban: bool,
    /// Local hour of day, `0..24`.
    pub hour: u8,
    /// Android major version of the device.
    pub android_version: u8,
    /// Anonymised device model id.
    pub device_model: u16,
    /// Hardware tier of the device.
    pub device_tier: DeviceTier,
    /// Cellular or WiFi link context.
    pub link: &'a LinkInfo,
    /// Test outcome classification.
    pub outcome: OutcomeClass,
}

impl<'a> RecordView<'a> {
    /// Cellular context, if this is a cellular test.
    pub fn cell(&self) -> Option<&'a CellInfo> {
        match self.link {
            LinkInfo::Cell(c) => Some(c),
            LinkInfo::Wifi(_) => None,
        }
    }

    /// WiFi context, if this is a WiFi test.
    pub fn wifi(&self) -> Option<&'a WifiInfo> {
        match self.link {
            LinkInfo::Wifi(w) => Some(w),
            LinkInfo::Cell(_) => None,
        }
    }

    /// LTE band, if this is a 4G test.
    pub fn lte_band(&self) -> Option<LteBandId> {
        match self.cell()?.band {
            CellBand::Lte(b) => Some(b),
            CellBand::Nr(_) => None,
        }
    }

    /// NR band, if this is a 5G test.
    pub fn nr_band(&self) -> Option<NrBandId> {
        match self.cell()?.band {
            CellBand::Nr(b) => Some(b),
            CellBand::Lte(_) => None,
        }
    }

    /// Materialise an owned row.
    pub fn to_record(&self) -> TestRecord {
        TestRecord {
            bandwidth_mbps: self.bandwidth_mbps,
            tech: self.tech,
            isp: self.isp,
            year: self.year,
            city_id: self.city_id,
            city_tier: self.city_tier,
            urban: self.urban,
            hour: self.hour,
            android_version: self.android_version,
            device_model: self.device_model,
            device_tier: self.device_tier,
            link: *self.link,
            outcome: self.outcome,
        }
    }
}

impl<'a> From<&'a TestRecord> for RecordView<'a> {
    fn from(r: &'a TestRecord) -> Self {
        Self {
            bandwidth_mbps: r.bandwidth_mbps,
            tech: r.tech,
            isp: r.isp,
            year: r.year,
            city_id: r.city_id,
            city_tier: r.city_tier,
            urban: r.urban,
            hour: r.hour,
            android_version: r.android_version,
            device_model: r.device_model,
            device_tier: r.device_tier,
            link: &r.link,
            outcome: r.outcome,
        }
    }
}

/// Iterate [`RecordView`]s over a row-major slice.
pub fn views(records: &[TestRecord]) -> impl Iterator<Item = RecordView<'_>> {
    records.iter().map(RecordView::from)
}

/// The bandwidth column of every record matching `pred` — the shared
/// replacement for ad-hoc per-call-site `bw_of` closures.
pub fn bandwidths_where<'a, I, P>(records: I, pred: P) -> Vec<f64>
where
    I: IntoIterator<Item = RecordView<'a>>,
    P: Fn(&RecordView<'a>) -> bool,
{
    records
        .into_iter()
        .filter(|r| pred(r))
        .map(|r| r.bandwidth_mbps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DatasetConfig, Generator};

    #[test]
    fn views_match_rows() {
        let records = Generator::new(DatasetConfig {
            tests: 200,
            ..DatasetConfig::default()
        })
        .generate();
        for (v, r) in views(&records).zip(&records) {
            assert_eq!(v.to_record(), *r);
            assert_eq!(v.cell().is_some(), r.cell().is_some());
            assert_eq!(v.lte_band(), r.lte_band());
            assert_eq!(v.nr_band(), r.nr_band());
        }
    }
}
