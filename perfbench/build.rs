//! Records the toolchain and source revision the benchmark was built
//! from, so every result line can name them.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = command_line(Command::new(rustc).arg("-V"));
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // A source checkout without `.git` (an exported tree) has no commit
    // to report; watching a missing path would rebuild on every run.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let git_dir = Path::new(&manifest_dir).join("../.git");
    let commit = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git_dir.join("refs").display());
        command_line(Command::new("git").args(["-C", &manifest_dir, "rev-parse", "HEAD"]))
    } else {
        "unknown".to_string()
    };
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}

/// First line of a command's standard output, or `unknown`.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
