//! The modules of `crates/wire` that build without tokio (admission
//! control, the results log, the message codec, the error taxonomy),
//! compiled from the repository's own files. `build.rs` derives the
//! list from `crates/wire/src/lib.rs`; see `../modlist.rs`.

include!(concat!(env!("OUT_DIR"), "/modules.rs"));
