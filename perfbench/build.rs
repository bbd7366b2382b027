//! Records the compiler version and, when built from a git checkout, the
//! commit, so every benchmark result names the build it measured.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = first_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    // Only this file: watching a path that may not exist (a checkout
    // without `.git`) would rerun the script, and rebuild the crate, on
    // every `cargo run`.
    println!("cargo:rerun-if-changed=build.rs");
}
