//! mmlib-lint CLI.
//!
//! ```text
//! mmlib-lint --workspace
//! ```
//!
//! Checks the workspace above the current directory against its
//! `lint-budget.txt`. Exit codes: 0 = clean, 1 = violations found,
//! 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use mmlib_lint::engine::{Budget, Workspace};
use mmlib_lint::report::render_text;

const USAGE: &str = "usage: mmlib-lint --workspace";

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("mmlib-lint: error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--workspace"] {
        return Err(format!("unexpected arguments {args:?}"));
    }
    let root = find_workspace_root()?;
    let budget = Budget::load(&root.join("lint-budget.txt"))?;
    let ws = Workspace::load(&root).map_err(|e| format!("loading workspace: {e}"))?;
    if ws.files.is_empty() {
        return Err(format!("no Rust sources found under {}", root.display()));
    }
    let report = ws.check(&budget);
    print!("{}", render_text(&report));
    Ok(report.clean())
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}
