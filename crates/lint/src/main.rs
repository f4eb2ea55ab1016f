//! mmlib-lint CLI.
//!
//! ```text
//! mmlib-lint --workspace [--root DIR] [--budget FILE] [--pairs FILE]
//!            [--rule ID] [--json] [--metrics] [--update-budget]
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mmlib_lint::engine::{Budget, Workspace};
use mmlib_lint::pairs::Pairs;
use mmlib_lint::report::{render_json, render_self_metrics, render_text};

const USAGE: &str = "usage: mmlib-lint --workspace [--root DIR] [--budget FILE] [--pairs FILE] \
                     [--rule ID] [--json] [--metrics] [--update-budget]";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("mmlib-lint: error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut workspace = false;
    let mut json = false;
    let mut metrics = false;
    let mut update_budget = false;
    let mut root: Option<PathBuf> = None;
    let mut budget_path: Option<PathBuf> = None;
    let mut pairs_path: Option<PathBuf> = None;
    let mut rule: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--update-budget" => update_budget = true,
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?));
            }
            "--budget" => {
                budget_path = Some(PathBuf::from(args.next().ok_or("--budget needs a value")?));
            }
            "--pairs" => {
                pairs_path = Some(PathBuf::from(args.next().ok_or("--pairs needs a value")?));
            }
            "--rule" => {
                rule = Some(args.next().ok_or("--rule needs a value")?.to_uppercase());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return Err("nothing to do (pass --workspace)".to_string());
    }
    if let Some(rule @ ("P1" | "D1" | "C1" | "F1")) = rule.as_deref() {
        println!("mmlib-lint: {rule} moved to the toolchain: run `cargo clippy --workspace`");
        return Ok(true);
    }

    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    let budget_path = budget_path.unwrap_or_else(|| root.join("lint-budget.txt"));
    let budget = Budget::load(&budget_path)?;
    let pairs_path = pairs_path.unwrap_or_else(|| root.join("lint-pairs.txt"));
    let pairs = Pairs::load(&pairs_path)?;

    let ws = Workspace::load(&root).map_err(|e| format!("loading workspace: {e}"))?;
    if ws.files.is_empty() {
        return Err(format!("no Rust sources found under {}", root.display()));
    }
    let started = Instant::now();
    let mut report = ws.check_full(&budget, &pairs);
    let elapsed = started.elapsed().as_secs_f64();

    if update_budget {
        let rendered = Budget::render(&report.allow_counts);
        std::fs::write(&budget_path, rendered)
            .map_err(|e| format!("writing {}: {e}", budget_path.display()))?;
        eprintln!("mmlib-lint: wrote {}", budget_path.display());
    }

    // `--rule L1` narrows the report to one rule family — the repro mode
    // check.sh prints on failure.
    if let Some(rule) = &rule {
        report.violations.retain(|v| v.rule == rule);
        report.allowed.retain(|v| v.rule == rule);
    }

    if json {
        println!("{}", render_json(&report));
    } else {
        print!("{}", render_text(&report));
    }
    if metrics {
        print!("{}", render_self_metrics(&report, elapsed));
    }
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
            return Err("no workspace Cargo.toml found above the current directory \
                        (pass --root)"
                .to_string());
        }
    }
}
