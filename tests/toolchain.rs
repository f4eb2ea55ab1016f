//! The four rules the toolchain owns still bite: every `_bad` fixture fails
//! `clippy-driver` under the lints the guarded crates declare in their own
//! `lib.rs` (P1, D1, C1) or the workspace lint table (F1), naming the
//! expected lint, and every `_good` fixture passes under the same flags.

use std::path::PathBuf;
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `-D` flags for the lints denied by the `lib.rs` line of `krate` whose
/// list starts with `first`.
fn declared(krate: &str, first: &str) -> Vec<String> {
    let lib = std::fs::read_to_string(root().join("crates").join(krate).join("src/lib.rs")).unwrap();
    let prefix = format!("#![cfg_attr(not(test), deny({first}");
    let line = lib
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("crates/{krate}/src/lib.rs no longer denies {first}"));
    let list = line.strip_prefix("#![cfg_attr(not(test), deny(").and_then(|l| l.strip_suffix("))]"));
    list.unwrap().split(", ").flat_map(|lint| ["-D".to_string(), lint.to_string()]).collect()
}

/// Runs `clippy-driver` on one fixture; returns (success, stderr with lint
/// names normalised to underscores).
fn clippy(fixture: &str, flags: &[String]) -> (bool, String) {
    let out = Command::new("clippy-driver")
        .args(["--edition", "2021", "--crate-type", "lib", "--emit", "metadata"])
        .arg("--out-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .args(flags)
        .arg(root().join("tests/fixtures").join(fixture))
        .env("CLIPPY_CONF_DIR", root())
        .output()
        .expect("clippy-driver must be installed: check.sh runs clippy anyway");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).replace('-', "_"))
}

#[test]
fn every_bad_fixture_fails_naming_its_lint_and_every_good_one_passes() {
    let manifest = std::fs::read_to_string(root().join("Cargo.toml")).unwrap();
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let rules: [(&str, Vec<String>, &[&str]); 4] = [
        ("p1", declared("net", "clippy::unwrap_used"), &["clippy::unwrap_used", "clippy::todo"]),
        (
            "d1",
            declared("tensor", "clippy::disallowed_methods"),
            &["clippy::disallowed_methods", "clippy::disallowed_types"],
        ),
        ("c1", declared("net", "clippy::cast_possible_truncation"), &["clippy::cast_possible_truncation"]),
        ("f1", vec!["-F".to_string(), "unsafe_code".to_string()], &["unsafe_code"]),
    ];
    for (rule, flags, expected) in rules {
        let (ok, stderr) = clippy(&format!("{rule}_bad.rs"), &flags);
        assert!(!ok, "{rule}_bad.rs passed under {flags:?}");
        for lint in expected {
            assert!(stderr.contains(lint), "{rule}_bad.rs failed without naming {lint}:\n{stderr}");
        }
        let (ok, stderr) = clippy(&format!("{rule}_good.rs"), &flags);
        assert!(ok, "{rule}_good.rs failed under {flags:?}:\n{stderr}");
    }
}
