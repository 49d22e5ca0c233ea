//! Records the compiler version and build profile, so every result the
//! benchmark prints can be stamped with them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for var in ["PROFILE", "OPT_LEVEL"] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_owned());
        println!("cargo:rustc-env=PERFBENCH_{var}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
