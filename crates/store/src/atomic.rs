//! Crash-consistent file writes: tmp + rename with fsync points.
//!
//! Both stores persist every document/blob through [`atomic_write`], so a
//! crash (real or injected) at any point leaves either the old file or the
//! new file fully visible — never a prefix. The protocol:
//!
//! 1. write the payload to `<name>.<n>.tmp` in the destination directory,
//! 2. `fdatasync` the temporary file (the data — and the file size, which
//!    `fdatasync` must flush for the data to be retrievable — is durable
//!    before it is named; the tmp's other metadata is irrelevant, so the
//!    full-`fsync` journal flush per payload is skipped),
//! 3. `rename` it over the destination (atomic on POSIX),
//! 4. best-effort `fsync` of the parent directory (the rename is durable).
//!
//! Temporary names never match the stores' `.json`/`.bin` scans, so an
//! interrupted write is invisible to readers; `fsck` sweeps the leftovers.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{injected_io_error, Fault, FaultInjector};

/// Process-wide counter making temporary names and writer nonces unique
/// within one process regardless of how many store handles exist.
static PROCESS_SEQ: AtomicU64 = AtomicU64::new(0);

/// Temporary-file sibling of `path`: `<file_name>.<n>.tmp` in the same
/// directory (rename must not cross filesystems).
fn tmp_sibling(path: &Path) -> PathBuf {
    let n = PROCESS_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("unnamed");
    path.with_file_name(format!("{name}.{n}.tmp"))
}

/// True if `file_name` is one of our temporary names (an interrupted write).
pub(crate) fn is_tmp_name(file_name: &str) -> bool {
    file_name.ends_with(".tmp")
}

/// Payload write granularity. One giant `write_all` of a multi-megabyte
/// blob can stall on dirty-page throttling; feeding the page cache in
/// bounded chunks keeps the write pipelined. Durability is unchanged — the
/// fsync points stay the same.
const WRITE_CHUNK: usize = 256 * 1024;

fn write_payload(f: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
    for chunk in bytes.chunks(WRITE_CHUNK) {
        f.write_all(chunk)?;
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: [`stage_write`] (which consults
/// `injector`, one operation per call), then a one-item commit that
/// consults nothing. A [`Fault::TornWrite`] persists only a prefix of the
/// temporary file and fails without renaming — the simulated mid-write
/// crash; any other scheduled fault fails before writing.
pub(crate) fn atomic_write(
    path: &Path,
    bytes: &[u8],
    injector: Option<&FaultInjector>,
) -> std::io::Result<()> {
    let staged = stage_write(path, bytes, injector)?;
    if let Err(e) = std::fs::rename(&staged.tmp, &staged.dest) {
        let _ = std::fs::remove_file(&staged.tmp);
        return Err(e);
    }
    // fsync point 2: the rename itself.
    if let Some(parent) = path.parent() {
        sync_dir(parent);
    }
    Ok(())
}

/// A payload made durable under its temporary name but not yet renamed to
/// its destination. [`commit_staged`] consumes it, so a stage is committed
/// at most once; one that is never committed (an error path, a crash)
/// leaves its tmp file for `fsck`.
#[derive(Debug)]
#[must_use = "a staged write is invisible until `commit_staged` renames it"]
pub(crate) struct StagedWrite {
    tmp: PathBuf,
    dest: PathBuf,
}

/// Stages `bytes` for `path`: writes and fsyncs the temporary sibling
/// without renaming it. Consults `injector` for one operation per call: a
/// [`Fault::TornWrite`] persists a prefix of the tmp file and fails, any
/// other scheduled fault fails before writing. On failure the tmp file (if
/// any) is left behind, as a crash would leave it — `fsck` sweeps
/// temporaries.
pub(crate) fn stage_write(
    path: &Path,
    bytes: &[u8],
    injector: Option<&FaultInjector>,
) -> std::io::Result<StagedWrite> {
    let fault = injector.and_then(|i| i.next());
    let tmp = tmp_sibling(path);
    match fault {
        None => {}
        Some(Fault::TornWrite { after_bytes }) => {
            // Saturate: a cut point beyond addressable memory means "the
            // whole buffer", which `min` then clamps to the actual length.
            let cut = usize::try_from(after_bytes).unwrap_or(usize::MAX).min(bytes.len());
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes[..cut])?;
            f.sync_all()?;
            // The "crash": the tmp file stays on disk, the rename never
            // happens, and the caller sees a failed operation.
            return Err(injected_io_error(&Fault::TornWrite { after_bytes }));
        }
        Some(other) => return Err(injected_io_error(&other)),
    }
    let mut f = std::fs::File::create(&tmp)?;
    write_payload(&mut f, bytes)?;
    // sync point 1: payload (data + size) durable under its temporary name.
    f.sync_data()?;
    Ok(StagedWrite { tmp, dest: path.to_path_buf() })
}

/// Best-effort directory fsync, making renames into `dir` durable — not
/// every filesystem supports opening a directory for sync.
fn sync_dir(dir: &Path) {
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

/// Commits staged writes: renames each tmp over its destination *in item
/// order*, then fsyncs each distinct parent directory once. Item order is
/// therefore the visibility order — a crash mid-commit exposes a prefix of
/// the batch, so callers must order referents before referencing documents
/// (the same discipline the sequential save path already follows).
///
/// Consults `injector` for one operation covering the whole commit:
/// a [`Fault::TornWrite`] renames only the first `after_bytes` items and
/// fails before the directory fsync (the simulated crash between batch
/// rename and dir fsync when the cut is past the end); any other scheduled
/// fault fails before any rename. Un-renamed tmp files stay on disk for
/// `fsck`, exactly as after a real crash.
///
/// Returns the number of directory fsyncs the commit issued (one per
/// distinct destination directory), for the caller's sync-op accounting.
pub(crate) fn commit_staged(
    staged: Vec<StagedWrite>,
    injector: Option<&FaultInjector>,
) -> std::io::Result<usize> {
    let fault = injector.and_then(|i| i.next());
    let rename_upto = match fault {
        None => staged.len(),
        Some(Fault::TornWrite { after_bytes }) => {
            usize::try_from(after_bytes).unwrap_or(usize::MAX).min(staged.len())
        }
        Some(other) => return Err(injected_io_error(&other)),
    };
    for s in &staged[..rename_upto] {
        std::fs::rename(&s.tmp, &s.dest)?;
    }
    if let Some(f) = fault {
        // The "crash": some (possibly all) renames landed, the directory
        // fsync never ran, and the caller sees a failed operation.
        return Err(injected_io_error(&f));
    }
    let mut parents: Vec<&Path> = staged.iter().filter_map(|s| s.dest.parent()).collect();
    parents.sort_unstable();
    parents.dedup();
    let dir_syncs = parents.len();
    for parent in parents {
        sync_dir(parent);
    }
    Ok(dir_syncs)
}

/// A writer nonce unique across processes (pid + clock) *and* across
/// handles within one process (process-wide counter) — the collision guard
/// `nanotime()` alone did not provide. Only the low 32 bits survive into
/// generated ids, so the counter is spread with a 64-bit odd multiplier.
pub(crate) fn writer_nonce() -> u64 {
    let seq = PROCESS_SEQ.fetch_add(1, Ordering::Relaxed);
    (std::process::id() as u64) ^ nanotime() ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

pub(crate) fn nanotime() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn atomic_write_replaces_content() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.json");
        atomic_write(&path, b"old", None).unwrap();
        atomic_write(&path, b"new", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        // No temporary files survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| is_tmp_name(e.as_ref().unwrap().file_name().to_str().unwrap()))
            .collect();
        assert!(leftovers.is_empty());
    }

    #[test]
    fn torn_write_leaves_old_content_and_a_tmp_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.json");
        atomic_write(&path, b"old", None).unwrap();

        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::TornWrite { after_bytes: 2 }));
        let err = atomic_write(&path, b"new-content", Some(&inj)).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "destination untouched");

        let tmps: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| is_tmp_name(e.file_name().to_str().unwrap()))
            .collect();
        assert_eq!(tmps.len(), 1, "the interrupted write leaves its tmp file");
        assert_eq!(std::fs::metadata(tmps[0].path()).unwrap().len(), 2, "cut after 2 bytes");
    }

    #[test]
    fn io_error_fault_writes_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.bin");
        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::IoError));
        assert!(atomic_write(&path, b"data", Some(&inj)).is_err());
        assert!(!path.exists());
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
    }

    fn stage_three(dir: &Path) -> Vec<StagedWrite> {
        (0..3)
            .map(|i| {
                stage_write(&dir.join(format!("f{i}.json")), format!("v{i}").as_bytes(), None)
                    .unwrap()
            })
            .collect()
    }

    fn tmp_count(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| is_tmp_name(e.as_ref().unwrap().file_name().to_str().unwrap()))
            .count()
    }

    #[test]
    fn staged_commit_makes_everything_visible_with_no_tmp_leftovers() {
        let dir = tempfile::tempdir().unwrap();
        let staged = stage_three(dir.path());
        // Staged but uncommitted: nothing visible yet.
        assert!(!dir.path().join("f0.json").exists());
        assert_eq!(tmp_count(dir.path()), 3);
        commit_staged(staged, None).unwrap();
        for i in 0..3 {
            let bytes = std::fs::read(dir.path().join(format!("f{i}.json"))).unwrap();
            assert_eq!(bytes, format!("v{i}").as_bytes());
        }
        assert_eq!(tmp_count(dir.path()), 0);
    }

    #[test]
    fn torn_commit_exposes_only_a_prefix_in_item_order() {
        let dir = tempfile::tempdir().unwrap();
        let staged = stage_three(dir.path());
        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::TornWrite { after_bytes: 1 }));
        assert!(commit_staged(staged, Some(&inj)).is_err());
        assert!(dir.path().join("f0.json").exists(), "first item renamed");
        assert!(!dir.path().join("f1.json").exists(), "later items never renamed");
        assert!(!dir.path().join("f2.json").exists());
        assert_eq!(tmp_count(dir.path()), 2, "un-renamed tmps stay for fsck");
    }

    #[test]
    fn faulted_commit_before_rename_leaves_old_state() {
        let dir = tempfile::tempdir().unwrap();
        let staged = stage_three(dir.path());
        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::IoError));
        assert!(commit_staged(staged, Some(&inj)).is_err());
        for i in 0..3 {
            assert!(!dir.path().join(format!("f{i}.json")).exists());
        }
        assert_eq!(tmp_count(dir.path()), 3);
    }

    #[test]
    fn torn_stage_persists_a_prefix_without_visibility() {
        let dir = tempfile::tempdir().unwrap();
        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::TornWrite { after_bytes: 2 }));
        let err = stage_write(&dir.path().join("x.json"), b"payload", Some(&inj)).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(!dir.path().join("x.json").exists());
        assert_eq!(tmp_count(dir.path()), 1);
    }

    #[test]
    fn writer_nonces_differ_within_a_process() {
        let a = writer_nonce();
        let b = writer_nonce();
        assert_ne!(a as u32, b as u32, "low 32 bits (the id prefix) must differ");
    }
}
