//! Records the compiler version in the binary for the provenance block.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown rustc".to_string());
    println!("cargo:rustc-env=MBW_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
