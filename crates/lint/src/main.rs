//! CLI for the repo-native lint gate.
//!
//! ```text
//! cargo run -p globe-lint -- --check          # human-readable, exit 1 on findings
//! cargo run -p globe-lint -- --check --json   # one JSON object per finding
//! ```
//!
//! The workspace root is discovered by walking up from the current
//! directory to the first `Cargo.toml` that declares `[workspace]`, so
//! the tool works from any subdirectory.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut check = false;
    for arg in &args {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "globe-lint: repo-native static analysis (panic, time, lock-order)\n\n\
                     USAGE: globe-lint --check [--json]\n\n\
                     Exits 0 when the workspace is clean, 1 on findings, 2 on config errors.\n\
                     Suppress a finding with `// lint: allow(<rule>) — <reason>` (reason mandatory)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("globe-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if !check {
        eprintln!("globe-lint: nothing to do; pass --check (try --help)");
        return ExitCode::from(2);
    }

    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("globe-lint: could not find a workspace root above the current directory");
            return ExitCode::from(2);
        }
    };

    match globe_lint::run(&root) {
        Ok(diags) if diags.is_empty() => {
            if json {
                println!("{}", globe_lint::diag::to_json(&diags));
            } else {
                println!("globe-lint: clean (panic, time, lock-order)");
            }
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            if json {
                println!("{}", globe_lint::diag::to_json(&diags));
            } else {
                for d in &diags {
                    println!("{d}");
                }
                eprintln!("globe-lint: {}", globe_lint::summarize(&diags));
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("globe-lint: config error: {e}");
            ExitCode::from(2)
        }
    }
}

/// First ancestor directory whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
