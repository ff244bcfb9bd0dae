//! Records the `target-cpu` the benchmark is compiled for and, when built
//! inside a git checkout, its revision, for the run header.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\x1f').collect();
    let cpu = flags
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            let f = f.strip_prefix("-C").unwrap_or(f);
            let f = if f.is_empty() {
                flags.get(i + 1).copied().unwrap_or("")
            } else {
                f
            };
            f.strip_prefix("target-cpu=")
        })
        .unwrap_or("default");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the package sits in the repo");
    let git = root.join(".git");
    let mut rev = "unknown".to_string();
    if git.is_dir() {
        let head = git.join("HEAD");
        println!("cargo:rerun-if-changed={}", head.display());
        if let Ok(text) = std::fs::read_to_string(&head) {
            if let Some(r) = text.trim().strip_prefix("ref: ") {
                let reference = git.join(r);
                if reference.exists() {
                    println!("cargo:rerun-if-changed={}", reference.display());
                }
            }
        }
        // Never look for a repository above the checkout.
        let ceiling = root.parent().unwrap_or(root);
        if let Ok(out) = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
        {
            if out.status.success() {
                rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
}
