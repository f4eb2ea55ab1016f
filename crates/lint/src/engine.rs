//! The analysis engine: workspace discovery, rule orchestration, pragma
//! suppression, and the ratchet budget.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::{h1, l1, Violation};
use crate::source::{FileKind, SourceFile};

/// Crate directories never scanned: vendored dependency shims mirror
/// external APIs.
const EXCLUDED_CRATES: &[&str] = &["shims"];

/// A loaded workspace: every scannable file, lexed once.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads the real workspace under `root` (the directory holding the
    /// workspace `Cargo.toml`). Scans the library code both rules read:
    /// `crates/*/src/**` plus the facade `src/`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if EXCLUDED_CRATES.contains(&name) {
                continue;
            }
            collect_rs(&dir.join("src"), root, &mut files)?;
        }
        collect_rs(&root.join("src"), root, &mut files)?;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory (path, text) pairs — the fixture
    /// and mutation-test entry point.
    pub fn from_memory(files: Vec<(String, String)>) -> Workspace {
        let files = files.iter().map(|(p, t)| SourceFile::new(p, t)).collect();
        Workspace { files }
    }

    /// Runs both rules over one concurrency model per concurrent crate,
    /// then applies pragmas. Returns the full report.
    pub fn check(&self, budget: &Budget) -> Report {
        let mut raw = Vec::new();
        for &krate in l1::CONCURRENT_CRATES {
            let files: Vec<(usize, &SourceFile)> = self
                .files
                .iter()
                .enumerate()
                .filter(|(_, f)| f.crate_name == krate && f.kind == FileKind::Lib)
                .collect();
            if files.is_empty() {
                continue;
            }
            let model = crate::callgraph::build(krate, &files);
            l1::check(&model, &files, &mut raw);
            h1::check(&model, &files, &mut raw);
        }
        self.apply_pragmas(raw, budget)
    }

    /// Splits raw findings into active violations and pragma-suppressed
    /// ones; adds meta findings for malformed/stale pragmas and a blown
    /// ratchet budget.
    fn apply_pragmas(&self, raw: Vec<Violation>, budget: &Budget) -> Report {
        let mut violations = Vec::new();
        let mut allowed = Vec::new();
        // (path, pragma index) -> times used
        let mut used: BTreeMap<(String, usize), usize> = BTreeMap::new();

        for v in raw {
            let file = self.files.iter().find(|f| f.path == v.path);
            let suppressor = file.and_then(|f| {
                f.pragmas.iter().enumerate().find(|(_, p)| {
                    // A trailing comment suppresses its own line; a
                    // standalone comment suppresses the next line.
                    p.error.is_none()
                        && p.rule == v.rule
                        && (p.line == v.line || p.line + 1 == v.line)
                })
            });
            match suppressor {
                Some((idx, _)) => {
                    *used.entry((v.path.clone(), idx)).or_default() += 1;
                    allowed.push(v);
                }
                None => violations.push(v),
            }
        }

        // Pragma hygiene: malformed pragmas and stale (unused) allows are
        // themselves violations — the ratchet must never rot.
        let mut allow_counts: BTreeMap<String, usize> = BTreeMap::new();
        for f in &self.files {
            for (idx, p) in f.pragmas.iter().enumerate() {
                if let Some(err) = &p.error {
                    violations.push(Violation {
                        rule: "LINT",
                        path: f.path.clone(),
                        line: p.line,
                        col: 0,
                        message: format!("malformed mmlib-lint pragma: {err}"),
                        snippet: f.snippet(p.line),
                    });
                    continue;
                }
                if used.contains_key(&(f.path.clone(), idx)) {
                    *allow_counts.entry(p.rule.clone()).or_default() += 1;
                } else {
                    violations.push(Violation {
                        rule: "LINT",
                        path: f.path.clone(),
                        line: p.line,
                        col: 0,
                        message: format!(
                            "stale pragma: allow({}, ...) suppresses nothing — remove it \
                             and ratchet the budget down",
                            p.rule
                        ),
                        snippet: f.snippet(p.line),
                    });
                }
            }
        }

        // Ratchet: the number of used allows per rule may not exceed the
        // committed budget.
        for (rule, count) in &allow_counts {
            let cap = budget.limit(rule);
            if *count > cap {
                violations.push(Violation {
                    rule: "LINT",
                    path: budget.source.clone(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "ratchet exceeded for {rule}: {count} allow pragmas in the tree \
                         but the committed budget is {cap} — fix the new sites instead \
                         of annotating them"
                    ),
                    snippet: String::new(),
                });
            }
        }

        // Byte-stable output: findings are sorted, not in rule-emission
        // order, so the report does not depend on which rule family ran
        // first (or on filesystem enumeration order).
        let sort_key = |v: &Violation| {
            (v.path.clone(), v.line, v.col, v.rule, v.message.clone())
        };
        violations.sort_by_key(sort_key);
        allowed.sort_by_key(sort_key);

        let files_scanned = self.files.len();
        Report { violations, allowed, allow_counts, files_scanned }
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::new(&rel, &text));
        }
    }
    Ok(())
}

/// The committed ratchet budget: per-rule caps on allow pragmas.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    limits: BTreeMap<String, usize>,
    /// Where the budget came from, for error messages.
    pub source: String,
}

impl Budget {
    /// An all-zero budget (no pragma allowed anywhere).
    pub fn zero() -> Budget {
        Budget { limits: BTreeMap::new(), source: "<zero budget>".to_string() }
    }

    /// Parses `RULE COUNT` lines; `#` starts a comment.
    pub fn parse(text: &str, source: &str) -> Result<Budget, String> {
        let mut limits = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(count), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("{source}:{}: expected `RULE COUNT`", i + 1));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("{source}:{}: bad count `{count}`", i + 1))?;
            limits.insert(rule.to_uppercase(), count);
        }
        Ok(Budget { limits, source: source.to_string() })
    }

    /// Loads the budget file, or an all-zero budget when it is absent.
    pub fn load(path: &Path) -> Result<Budget, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Budget::parse(&text, &path.display().to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Budget::zero()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    pub fn limit(&self, rule: &str) -> usize {
        self.limits.get(rule).copied().unwrap_or(0)
    }
}

/// The outcome of one analysis run.
pub struct Report {
    /// Active violations (pragma-suppressed ones excluded).
    pub violations: Vec<Violation>,
    /// Findings suppressed by a valid pragma.
    pub allowed: Vec<Violation>,
    /// Used allow pragmas per rule (the ratchet's measured side).
    pub allow_counts: BTreeMap<String, usize>,
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}
