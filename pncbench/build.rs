//! Records the compiler version and source revision for the run stamp.

use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only the repository's own `.git` is consulted, never a repository
    // that happens to enclose an exported tree.
    let rev = std::path::Path::new("../.git")
        .exists()
        .then(|| output("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PNCBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PNCBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
