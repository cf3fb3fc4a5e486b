//! Record schema and ecosystem enums.
//!
//! One [`TestRecord`] mirrors what the paper's data-collection plugin
//! captures per bandwidth test (§2): the test result plus PHY/MAC-layer
//! context for cellular (band, RSS, SNR, base-station id) or WiFi
//! (standard, radio band, AP id) access, and device/OS/location metadata.

/// Measurement year; the paper compares 2020 and 2021 populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Year {
    /// Pre-refarming population (BTS-APP's 2020 measurement reports).
    Y2020,
    /// The paper's main Aug–Nov 2021 population.
    Y2021,
}

/// Access technology of one test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessTech {
    /// Legacy 3G (0.09% of tests; kept for the §3.1 totals).
    Cellular3g,
    /// 4G LTE.
    Cellular4g,
    /// 5G NR (sub-6 GHz in China).
    Cellular5g,
    /// WiFi (any standard; see [`WifiStandard`]).
    Wifi,
}

impl AccessTech {
    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            AccessTech::Cellular3g => "3G",
            AccessTech::Cellular4g => "4G",
            AccessTech::Cellular5g => "5G",
            AccessTech::Wifi => "WiFi",
        }
    }
}

impl mbw_frame::Codec for AccessTech {
    fn encode(&self, enc: &mut mbw_frame::Enc) {
        enc.put_u8(match self {
            AccessTech::Cellular3g => 0,
            AccessTech::Cellular4g => 1,
            AccessTech::Cellular5g => 2,
            AccessTech::Wifi => 3,
        });
    }

    fn decode(dec: &mut mbw_frame::Dec<'_>) -> Result<Self, mbw_frame::CodecError> {
        match dec.u8()? {
            0 => Ok(AccessTech::Cellular3g),
            1 => Ok(AccessTech::Cellular4g),
            2 => Ok(AccessTech::Cellular5g),
            3 => Ok(AccessTech::Wifi),
            tag => Err(mbw_frame::CodecError::BadTag {
                what: "access tech",
                tag: u64::from(tag),
            }),
        }
    }
}

/// The four major Chinese ISPs, anonymised as in the paper (§3.1):
/// ISP-1 = China Mobile, ISP-2 = China Unicom, ISP-3 = China Telecom,
/// ISP-4 = China Broadcast Network (the new 5G-first entrant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isp {
    /// Largest subscriber base; deploys LTE B3/B8/B34/B39/B40/B41, NR N41/N79.
    Isp1,
    /// Deploys LTE B1/B3/B8, NR N1/N78.
    Isp2,
    /// Heaviest fixed-broadband investment; LTE B1/B3/B5, NR N1/N78.
    Isp3,
    /// 5G-first newcomer on the 700 MHz band (B28/N28).
    Isp4,
}

impl Isp {
    /// All four ISPs in paper order.
    pub const ALL: [Isp; 4] = [Isp::Isp1, Isp::Isp2, Isp::Isp3, Isp::Isp4];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Isp::Isp1 => "ISP-1",
            Isp::Isp2 => "ISP-2",
            Isp::Isp3 => "ISP-3",
            Isp::Isp4 => "ISP-4",
        }
    }
}

/// City size tier (§3.1: 21 mega, 51 medium, 254 small cities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CityTier {
    /// Mega city (e.g. Beijing, Shanghai, Guangzhou, Shenzhen).
    Mega,
    /// Medium city.
    Medium,
    /// Small city.
    Small,
}

impl CityTier {
    /// All tiers.
    pub const ALL: [CityTier; 3] = [CityTier::Mega, CityTier::Medium, CityTier::Small];
}

/// The nine LTE bands of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LteBandId {
    /// 758–803 MHz, ISP-4.
    B28,
    /// 869–894 MHz, ISP-3.
    B5,
    /// 925–960 MHz, ISP-1/2.
    B8,
    /// 1805–1880 MHz, ISP-1/2/3 — the workhorse band.
    B3,
    /// 1880–1920 MHz, ISP-1, rural coverage.
    B39,
    /// 2010–2025 MHz, ISP-1.
    B34,
    /// 2110–2170 MHz, ISP-2/3 — refarmed to N1 in 2021.
    B1,
    /// 2300–2400 MHz, ISP-1, indoor penetration.
    B40,
    /// 2496–2690 MHz, ISP-1 — refarmed to N41 in 2021.
    B41,
}

impl LteBandId {
    /// All bands, in Table 1's spectrum order.
    pub const ALL: [LteBandId; 9] = [
        LteBandId::B28,
        LteBandId::B5,
        LteBandId::B8,
        LteBandId::B3,
        LteBandId::B39,
        LteBandId::B34,
        LteBandId::B1,
        LteBandId::B40,
        LteBandId::B41,
    ];

    /// 3GPP-style display name.
    pub fn name(self) -> &'static str {
        match self {
            LteBandId::B28 => "B28",
            LteBandId::B5 => "B5",
            LteBandId::B8 => "B8",
            LteBandId::B3 => "B3",
            LteBandId::B39 => "B39",
            LteBandId::B34 => "B34",
            LteBandId::B1 => "B1",
            LteBandId::B40 => "B40",
            LteBandId::B41 => "B41",
        }
    }
}

/// The five NR bands of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NrBandId {
    /// 758–803 MHz, ISP-4, refarmed from B28.
    N28,
    /// 2110–2170 MHz, ISP-2/3, refarmed from B1 (thin 60 MHz).
    N1,
    /// 2496–2690 MHz, ISP-1, refarmed from B41 (wide 100 MHz).
    N41,
    /// 3300–3800 MHz, ISP-2/3 — 5G's core capacity band.
    N78,
    /// 4400–5000 MHz, ISP-1/4, still in test deployment.
    N79,
}

impl NrBandId {
    /// All bands, in Table 2's spectrum order.
    pub const ALL: [NrBandId; 5] = [
        NrBandId::N28,
        NrBandId::N1,
        NrBandId::N41,
        NrBandId::N78,
        NrBandId::N79,
    ];

    /// 3GPP-style display name.
    pub fn name(self) -> &'static str {
        match self {
            NrBandId::N28 => "N28",
            NrBandId::N1 => "N1",
            NrBandId::N41 => "N41",
            NrBandId::N78 => "N78",
            NrBandId::N79 => "N79",
        }
    }
}

/// WiFi generation (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WifiStandard {
    /// 802.11n — 2.4 GHz and 5 GHz.
    Wifi4,
    /// 802.11ac — 5 GHz only.
    Wifi5,
    /// 802.11ax — 2.4 GHz and 5 GHz.
    Wifi6,
}

impl WifiStandard {
    /// All standards.
    pub const ALL: [WifiStandard; 3] = [
        WifiStandard::Wifi4,
        WifiStandard::Wifi5,
        WifiStandard::Wifi6,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WifiStandard::Wifi4 => "WiFi 4",
            WifiStandard::Wifi5 => "WiFi 5",
            WifiStandard::Wifi6 => "WiFi 6",
        }
    }

    /// Whether the standard can operate on 2.4 GHz (WiFi 5 cannot).
    pub fn supports_24ghz(self) -> bool {
        !matches!(self, WifiStandard::Wifi5)
    }
}

/// Either cell band identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellBand {
    /// An LTE band.
    Lte(LteBandId),
    /// An NR band.
    Nr(NrBandId),
}

/// Cellular-side context captured during a test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInfo {
    /// Serving band.
    pub band: CellBand,
    /// Quantised received signal strength, level 1 (poor) – 5 (excellent).
    pub rss_level: u8,
    /// Raw RSS in dBm.
    pub rss_dbm: f64,
    /// Signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Anonymised serving base-station identifier.
    pub bs_id: u32,
    /// Absolute radio-frequency channel number of the serving carrier
    /// (derived from the band's downlink spectrum — the "channel number"
    /// the §2 plugin records).
    pub arfcn: u32,
    /// Whether the serving eNodeB runs LTE-Advanced (carrier aggregation,
    /// enhanced MIMO) — deployed along urban main roads (§3.2).
    pub lte_advanced: bool,
}

/// WiFi-side context captured during a test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiInfo {
    /// WiFi generation of the connected AP.
    pub standard: WifiStandard,
    /// True when the association is on 5 GHz; false for 2.4 GHz.
    pub on_5ghz: bool,
    /// The household's fixed-broadband plan in Mbps (the wired cap
    /// behind the AP).
    pub plan_mbps: f64,
    /// Anonymised AP identifier.
    pub ap_id: u32,
    /// Negotiated MAC-layer transmission speed, Mbps (§2: one of the
    /// AP capabilities the plugin records; always ≥ the achieved
    /// bandwidth).
    pub mac_rate_mbps: f64,
    /// Number of other WiFi APs detected nearby (the "local network
    /// status" of §2 — co-channel contention, worst on 2.4 GHz).
    pub neighbor_aps: u16,
}

/// Link-specific context, cellular or WiFi.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkInfo {
    /// Cellular test.
    Cell(CellInfo),
    /// WiFi test.
    Wifi(WifiInfo),
}

/// Hardware tier of the testing device (§3.1: 2,381 models "from
/// rather low-end to very high-end"). The paper's finding: tier only
/// *appears* to drive bandwidth — conditioning on the Android version
/// shrinks the tier effect to a ≤23 Mbps standard deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceTier {
    /// Budget models.
    Low,
    /// Mid-range models.
    Mid,
    /// Flagship models.
    High,
}

impl DeviceTier {
    /// All tiers, ascending.
    pub const ALL: [DeviceTier; 3] = [DeviceTier::Low, DeviceTier::Mid, DeviceTier::High];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceTier::Low => "low-end",
            DeviceTier::Mid => "mid-range",
            DeviceTier::High => "high-end",
        }
    }
}

/// How a bandwidth test ended. Real crowdsourced campaigns lose a
/// slice of tests to radio blackouts, server faults, and app kills;
/// the schema records that instead of silently dropping the rows, so
/// the analysis layer can report failure rates per technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutcomeClass {
    /// The test converged normally.
    #[default]
    Complete,
    /// The test ended early or recovered from a fault; the bandwidth
    /// value is a usable partial estimate.
    Degraded,
    /// The test produced no usable estimate (`bandwidth_mbps` is 0).
    Failed,
}

impl OutcomeClass {
    /// Stable lowercase label (used by the CSV codec).
    pub fn label(self) -> &'static str {
        match self {
            OutcomeClass::Complete => "complete",
            OutcomeClass::Degraded => "degraded",
            OutcomeClass::Failed => "failed",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "complete" => Some(OutcomeClass::Complete),
            "degraded" => Some(OutcomeClass::Degraded),
            "failed" => Some(OutcomeClass::Failed),
            _ => None,
        }
    }

    /// Whether the record's bandwidth value is meaningful.
    pub fn is_usable(self) -> bool {
        !matches!(self, OutcomeClass::Failed)
    }
}

/// One access-bandwidth test with its full cross-layer context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestRecord {
    /// Measured downlink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Access technology.
    pub tech: AccessTech,
    /// Serving ISP (for WiFi: the wired broadband provider).
    pub isp: Isp,
    /// Measurement year.
    pub year: Year,
    /// Anonymised city index.
    pub city_id: u16,
    /// City size tier.
    pub city_tier: CityTier,
    /// Whether the test ran in the urban core (vs rural outskirts).
    pub urban: bool,
    /// Local hour of day, 0–23.
    pub hour: u8,
    /// Android major version, 5–12.
    pub android_version: u8,
    /// Anonymised device-model index (vendor × model).
    pub device_model: u16,
    /// Hardware tier of the device model.
    pub device_tier: DeviceTier,
    /// Link-layer context.
    pub link: LinkInfo,
    /// How the test ended.
    pub outcome: OutcomeClass,
}

impl TestRecord {
    /// Cellular context, if this is a cellular test.
    pub fn cell(&self) -> Option<&CellInfo> {
        match &self.link {
            LinkInfo::Cell(c) => Some(c),
            LinkInfo::Wifi(_) => None,
        }
    }

    /// WiFi context, if this is a WiFi test.
    pub fn wifi(&self) -> Option<&WifiInfo> {
        match &self.link {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi_record() -> TestRecord {
        TestRecord {
            bandwidth_mbps: 150.0,
            tech: AccessTech::Wifi,
            isp: Isp::Isp3,
            year: Year::Y2021,
            city_id: 7,
            city_tier: CityTier::Mega,
            urban: true,
            hour: 20,
            android_version: 11,
            device_model: 42,
            device_tier: DeviceTier::Mid,
            link: LinkInfo::Wifi(WifiInfo {
                standard: WifiStandard::Wifi5,
                on_5ghz: true,
                plan_mbps: 200.0,
                ap_id: 9,
                mac_rate_mbps: 433.0,
                neighbor_aps: 12,
            }),
            outcome: OutcomeClass::Complete,
        }
    }

    #[test]
    fn accessors_dispatch_on_link_kind() {
        let w = wifi_record();
        assert!(w.wifi().is_some());
        assert!(w.cell().is_none());
        assert!(w.lte_band().is_none());
        assert!(w.nr_band().is_none());

        let mut c = wifi_record();
        c.tech = AccessTech::Cellular4g;
        c.link = LinkInfo::Cell(CellInfo {
            band: CellBand::Lte(LteBandId::B3),
            rss_level: 4,
            rss_dbm: -85.0,
            snr_db: 20.0,
            bs_id: 1,
            arfcn: 1825,
            lte_advanced: false,
        });
        assert_eq!(c.lte_band(), Some(LteBandId::B3));
        assert!(c.nr_band().is_none());
        assert!(c.wifi().is_none());
    }

    #[test]
    fn wifi5_is_5ghz_only() {
        assert!(!WifiStandard::Wifi5.supports_24ghz());
        assert!(WifiStandard::Wifi4.supports_24ghz());
        assert!(WifiStandard::Wifi6.supports_24ghz());
    }

    #[test]
    fn enum_name_tables_are_complete() {
        assert_eq!(LteBandId::ALL.len(), 9);
        assert_eq!(NrBandId::ALL.len(), 5);
        assert_eq!(Isp::ALL.len(), 4);
        for b in LteBandId::ALL {
            assert!(b.name().starts_with('B'));
        }
        for b in NrBandId::ALL {
            assert!(b.name().starts_with('N'));
        }
    }

    #[test]
    fn records_are_copy_and_comparable() {
        let a = wifi_record();
        let b = a; // Copy
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_labels_roundtrip() {
        for o in [
            OutcomeClass::Complete,
            OutcomeClass::Degraded,
            OutcomeClass::Failed,
        ] {
            assert_eq!(OutcomeClass::from_label(o.label()), Some(o));
        }
        assert_eq!(OutcomeClass::from_label("bogus"), None);
        assert!(OutcomeClass::Degraded.is_usable());
        assert!(!OutcomeClass::Failed.is_usable());
    }
}
