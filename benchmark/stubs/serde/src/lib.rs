//! Offline stand-in for `serde`, patched in by `benchmark/Cargo.toml`.
//!
//! The repository's crates only *name* the two traits in derive lists;
//! no serialiser or deserialiser is linked anywhere (`mbw_frame::Codec`
//! is the wire format). The traits are therefore empty markers and the
//! derives (see `serde_derive`) expand to nothing.

/// Marker standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
