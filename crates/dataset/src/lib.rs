#![warn(missing_docs)]
//! Synthetic crowdsourced bandwidth-test dataset.
//!
//! The paper's dataset — 23.6M tests from 3.54M users of a commercial
//! Android bandwidth-testing app, collected Aug–Nov 2021 across China —
//! is closed. This crate is the substitution: a *generative model of the
//! Chinese mobile ecosystem* whose parameters are calibrated to every
//! aggregate the paper reports, producing [`TestRecord`]s with the same
//! schema the enhanced BTS-APP plugin collects (§2): access technology,
//! ISP, cell band or WiFi standard/radio band, signal strength and SNR,
//! base-station/AP identifiers, device/OS information, time and location
//! context, and the measured downlink bandwidth.
//!
//! The analysis pipeline (`mbw-analysis`) consumes only [`RecordView`]s,
//! so every paper figure's computation runs unchanged on this synthetic
//! population. Where the paper's findings are *emergent* (multi-modal
//! WiFi PDFs from broadband plans, the non-monotonic 5G RSS-bandwidth
//! relation from urban interference, the 4G/5G bandwidth drop from
//! spectrum refarming), the generator encodes the *mechanism*, not the
//! final histogram: WiFi bandwidth is `min(link, plan)`, RSS level 5
//! co-occurs with dense-urban interference, and the 2021 population moves
//! Band 1/41 users onto thinner refarmed spectrum.
//!
//! Modules:
//!
//! - [`types`] — the record schema and ecosystem enums.
//! - [`bands`] — Tables 1 and 2: the nine LTE and five NR bands with
//!   their downlink spectrum, channel bandwidth, and owning ISPs.
//! - [`ecosystem`] — ISP shares, city tiers, Android-version mix,
//!   broadband plans, diurnal profiles, RSS distributions.
//! - [`models`] — the per-technology / per-band bandwidth models and the
//!   contextual multipliers.
//! - [`profile`] — the [`EcosystemProfile`] data structure: every
//!   calibration table above as a first-class value, with four built-in
//!   ecosystems (`paper-china`, `europe-ran`, `developing-market`,
//!   `mmwave-metro`).
//! - [`generator`] — the seeded record generator, parameterized by a
//!   profile.
//! - [`parallel`] — sharded, thread-count-independent parallel
//!   generation (owned rows or streaming).
//! - [`columnar`] — the [`RecordView`] row cursor the analysis layer
//!   consumes.

pub mod bands;
pub mod columnar;
pub mod csv;
pub mod ecosystem;
pub mod generator;
pub mod models;
pub mod parallel;
pub mod profile;
pub mod types;

pub use bands::{LteBandInfo, NrBandInfo, LTE_BANDS, NR_BANDS};
pub use columnar::RecordView;
pub use generator::{DatasetConfig, Generator};
pub use parallel::{
    for_each_record, generate_sharded, validate_partition, PartitionError, ShardPlan, ShardSpec,
    SliceAssignment, DEFAULT_SHARD_SIZE,
};
pub use profile::{EcosystemProfile, ProfileError};
pub use types::{
    AccessTech, CellInfo, CityTier, DeviceTier, Isp, LinkInfo, LteBandId, NrBandId, OutcomeClass,
    TestRecord, WifiInfo, WifiStandard, Year,
};
