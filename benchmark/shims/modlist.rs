// Shared by the two shim build scripts (each `include!`s this file).
//
// Derives a crate's module list from its own `lib.rs` and writes
// `$OUT_DIR/modules.rs`, one `#[path] pub mod x;` per module that can
// build offline. A module is left out when it mentions a crate that
// does not resolve against an empty registry (`tokio`, `criterion`), or
// when it refers to a sibling (`crate::x`) that was itself left out.
// Nothing here names a module, so deleting or adding one in the repo
// needs no edit in `benchmark/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const UNAVAILABLE: [&str; 2] = ["tokio", "criterion"];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `text` mentions `word` as a whole identifier.
fn mentions(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    text.match_indices(word).any(|(at, _)| {
        let before = at.checked_sub(1).map(|i| bytes[i]);
        let after = bytes.get(at + word.len()).copied();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

fn declared_modules(lib_rs: &str) -> Vec<String> {
    lib_rs
        .lines()
        .filter_map(|line| {
            let name = line.trim().strip_prefix("pub mod ")?.strip_suffix(';')?;
            name.bytes().all(is_ident).then(|| name.to_string())
        })
        .collect()
}

fn module_file(src: &Path, name: &str) -> PathBuf {
    let flat = src.join(format!("{name}.rs"));
    if flat.exists() {
        flat
    } else {
        src.join(name).join("mod.rs")
    }
}

/// Write `modules.rs` for the crate whose sources live in `src`
/// (relative to the shim's manifest directory).
fn derive_modules(src: &str) {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets this"));
    let src = manifest
        .join(src)
        .canonicalize()
        .unwrap_or_else(|e| panic!("{src}: {e} (the benchmark builds the repo's crates in place)"));
    let lib_path = src.join("lib.rs");
    println!("cargo:rerun-if-changed={}", lib_path.display());
    let lib_rs = std::fs::read_to_string(&lib_path)
        .unwrap_or_else(|e| panic!("{}: {e}", lib_path.display()));

    let mut sources: BTreeMap<String, (PathBuf, String)> = BTreeMap::new();
    for name in declared_modules(&lib_rs) {
        let path = module_file(&src, &name);
        println!("cargo:rerun-if-changed={}", path.display());
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        sources.insert(name, (path, text));
    }

    let mut skipped: Vec<String> = sources
        .iter()
        .filter(|(_, (_, text))| UNAVAILABLE.iter().any(|dep| mentions(text, dep)))
        .map(|(name, _)| name.clone())
        .collect();
    // A kept module that imports a skipped sibling cannot build either.
    loop {
        let more: Vec<String> = sources
            .iter()
            .filter(|(name, _)| !skipped.contains(name))
            .filter(|(_, (_, text))| {
                skipped
                    .iter()
                    .any(|gone| text.contains(&format!("crate::{gone}::")))
            })
            .map(|(name, _)| name.clone())
            .collect();
        if more.is_empty() {
            break;
        }
        skipped.extend(more);
    }

    skipped.sort();
    let mut out = format!(
        "/// Modules of the crate this shim leaves out.\npub const LEFT_OUT: &[&str] = &{skipped:?};\n"
    );
    for (name, (path, _)) in &sources {
        if !skipped.contains(name) {
            out.push_str(&format!(
                "#[path = {:?}]\npub mod {name};\n",
                path.display().to_string()
            ));
        }
    }
    let out_dir = PathBuf::from(std::env::var("OUT_DIR").expect("cargo sets this"));
    std::fs::write(out_dir.join("modules.rs"), out).expect("write modules.rs");
}
