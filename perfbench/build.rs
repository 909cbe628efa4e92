//! Records the compiler version and build profile, which every result
//! reports as host facts.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().replace('"', "'"));
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
