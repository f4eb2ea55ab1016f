//! The store's one write path: staged writes, an ordered commit, and the
//! id-generating directory both halves of the store are built on.
//!
//! Every document and blob reaches disk through [`StoreDir::stage`] and
//! [`commit_staged`], so a crash (real or injected) at any point leaves
//! either the old file or the new file fully visible — never a prefix. A
//! batch stages all its items, then commits them once; a per-item write is
//! the same two steps with one item ([`StoreDir::write`]). The protocol:
//!
//! 1. write the payload to `<name>.<n>.tmp` in the destination directory,
//! 2. `fdatasync` the temporary file (the data — and the file size, which
//!    `fdatasync` must flush for the data to be retrievable — is durable
//!    before it is named; the tmp's other metadata is irrelevant, so the
//!    full-`fsync` journal flush per payload is skipped),
//! 3. `rename` it over the destination, in item order (atomic on POSIX),
//! 4. `fsync` of each destination directory once (the renames are
//!    durable; a failed sync fails the commit).
//!
//! Temporary names never match the stores' `.json`/`.bin` scans, so an
//! interrupted write is invisible to readers; `fsck` sweeps the leftovers.

use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::{injected_io_error, Fault, FaultInjector};
use crate::storage::{Accounting, StoreError};

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

/// Directory fsync, making renames into `dir` durable. A directory that
/// cannot be opened (not every filesystem allows it) is skipped, `Ok(false)`;
/// a failed sync is an error, as the renames may not survive a crash.
fn sync_dir(dir: &Path) -> std::io::Result<bool> {
    match std::fs::File::open(dir) {
        Ok(dir) => dir.sync_all().map(|()| true),
        Err(_) => Ok(false),
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
/// destination directory it could open), for the caller's sync-op accounting.
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
    let mut dir_syncs = 0;
    for parent in parents {
        dir_syncs += usize::from(sync_dir(parent)?);
    }
    Ok(dir_syncs)
}

/// A generated id naming one file of a [`StoreDir`].
pub(crate) trait DirId: Sized {
    /// Extension of the files this id names (`json`, `bin`).
    const EXT: &'static str;
    /// Wraps a raw id string.
    fn wrap(raw: String) -> Self;
    /// The raw id string.
    fn raw(&self) -> &str;
    /// The typed error for an id with no file.
    fn missing(&self) -> StoreError;
}

/// A directory of files named by generated ids: `<id>.<ext>`. Both halves
/// of the local store are one of these; the document half adds only its
/// JSON codec on top.
pub(crate) struct StoreDir<I> {
    dir: PathBuf,
    counter: AtomicU64,
    nonce: u64,
    accounting: Arc<Accounting>,
    faults: Option<Arc<FaultInjector>>,
    ids: PhantomData<fn() -> I>,
}

impl<I: DirId> StoreDir<I> {
    /// Opens (or creates) `dir`, continuing id generation past the highest
    /// sequence number already stored. Every write consults `faults`, when
    /// given, for its one injector operation.
    pub(crate) fn open(
        dir: PathBuf,
        accounting: Arc<Accounting>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<StoreDir<I>, StoreError> {
        std::fs::create_dir_all(&dir)?;
        let mut max_seq = 0u64;
        for stem in Self::stems(&dir)? {
            if let Some(seq) = stem.split('-').nth(1).and_then(|s| u64::from_str_radix(s, 16).ok())
            {
                max_seq = max_seq.max(seq);
            }
        }
        Ok(StoreDir {
            dir,
            counter: AtomicU64::new(max_seq + 1),
            // The nonce distinguishes writers sharing a directory; it only
            // needs uniqueness (across processes and handles), not secrecy.
            nonce: writer_nonce(),
            accounting,
            faults,
            ids: PhantomData,
        })
    }

    /// The file stems (ids) of every `<id>.<ext>` in `dir`, unsorted.
    fn stems(dir: &Path) -> Result<Vec<String>, StoreError> {
        let suffix = format!(".{}", I::EXT);
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(suffix.as_str())) {
                out.push(stem.to_string());
            }
        }
        Ok(out)
    }

    fn path_of(&self, id: &I) -> PathBuf {
        self.dir.join(format!("{}.{}", id.raw(), I::EXT))
    }

    /// A fresh id. Two writers can race to the same id when their nonces
    /// collide (e.g. a handle reopened from a stale scan), so ids whose
    /// file already exists are skipped instead of overwritten.
    pub(crate) fn next_id(&self) -> I {
        loop {
            let seq = self.counter.fetch_add(1, Ordering::Relaxed);
            let candidate = I::wrap(format!("{:08x}-{:x}", self.nonce & 0xffff_ffff, seq));
            if !self.path_of(&candidate).exists() {
                break candidate;
            }
        }
    }

    /// The fault injector every write of this directory consults.
    pub(crate) fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Stages `bytes` for `id` ([`stage_write`]: one injector operation),
    /// accounting its payload sync. Invisible until committed.
    pub(crate) fn stage(&self, id: &I, bytes: &[u8]) -> Result<StagedWrite, StoreError> {
        let staged = stage_write(&self.path_of(id), bytes, self.faults())?;
        self.accounting.add_syncs(1);
        Ok(staged)
    }

    /// Commits `staged` ([`commit_staged`], consulting `faults`), then
    /// accounts its directory syncs and its `written` payload bytes.
    pub(crate) fn commit(
        &self,
        staged: Vec<StagedWrite>,
        written: u64,
        faults: Option<&FaultInjector>,
    ) -> Result<(), StoreError> {
        let dir_syncs = commit_staged(staged, faults)?;
        self.accounting.add_syncs(dir_syncs as u64);
        self.accounting.add_written(written);
        Ok(())
    }

    /// Writes `bytes` as `id`: a stage and a one-item commit. The stage
    /// takes the write's one injector operation; the commit consults none,
    /// so a fault plan counts one operation per per-item write.
    pub(crate) fn write(&self, id: &I, bytes: &[u8]) -> Result<(), StoreError> {
        let staged = self.stage(id, bytes)?;
        self.commit(vec![staged], bytes.len() as u64, None)
    }

    fn not_found(id: &I, e: std::io::Error) -> StoreError {
        if e.kind() == std::io::ErrorKind::NotFound {
            id.missing()
        } else {
            StoreError::Io(e)
        }
    }

    /// Reads the file of `id`, accounting its bytes.
    pub(crate) fn read(&self, id: &I) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.path_of(id)).map_err(|e| Self::not_found(id, e))?;
        self.accounting.add_read(bytes.len() as u64);
        Ok(bytes)
    }

    /// Size in bytes of the file of `id`, without reading it.
    pub(crate) fn size(&self, id: &I) -> Result<u64, StoreError> {
        Ok(std::fs::metadata(self.path_of(id)).map_err(|e| Self::not_found(id, e))?.len())
    }

    /// True if `id` has a file.
    pub(crate) fn contains(&self, id: &I) -> bool {
        self.path_of(id).exists()
    }

    /// Removes the file of `id`.
    pub(crate) fn remove(&self, id: &I) -> Result<(), StoreError> {
        std::fs::remove_file(self.path_of(id)).map_err(|e| Self::not_found(id, e))
    }

    /// Every stored id, sorted.
    pub(crate) fn ids(&self) -> Result<Vec<I>, StoreError> {
        let mut stems = Self::stems(&self.dir)?;
        stems.sort();
        Ok(stems.into_iter().map(I::wrap).collect())
    }
}

/// A writer nonce unique across processes (pid + clock) *and* across
/// handles within one process (process-wide counter) — the collision guard
/// `nanotime()` alone did not provide. Only the low 32 bits survive into
/// generated ids, so the counter is spread with a 64-bit odd multiplier.
fn writer_nonce() -> u64 {
    let seq = PROCESS_SEQ.fetch_add(1, Ordering::Relaxed);
    (std::process::id() as u64) ^ nanotime() ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn nanotime() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::files::FileId;

    fn file_dir(path: &Path, faults: Option<FaultInjector>) -> StoreDir<FileId> {
        StoreDir::open(path.to_path_buf(), Arc::new(Accounting::default()), faults.map(Arc::new))
            .unwrap()
    }

    #[test]
    fn a_write_replaces_content_and_leaves_no_tmp() {
        let dir = tempfile::tempdir().unwrap();
        let d = file_dir(dir.path(), None);
        let id = d.next_id();
        d.write(&id, b"old").unwrap();
        d.write(&id, b"new").unwrap();
        assert_eq!(d.read(&id).unwrap(), b"new");
        assert_eq!(d.size(&id).unwrap(), 3);
        assert_eq!(tmp_count(dir.path()), 0);
    }

    #[test]
    fn torn_write_leaves_old_content_and_a_tmp_file() {
        let dir = tempfile::tempdir().unwrap();
        // Op 0 is the first write; op 1, the second, is torn.
        let plan = FaultPlan::new(0).with(1, Fault::TornWrite { after_bytes: 2 });
        let d = file_dir(dir.path(), Some(FaultInjector::new(plan)));
        let id = d.next_id();
        d.write(&id, b"old").unwrap();
        let err = d.write(&id, b"new-content").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(d.read(&id).unwrap(), b"old", "destination untouched");

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
        let plan = FaultPlan::new(0).with(0, Fault::IoError);
        let d = file_dir(dir.path(), Some(FaultInjector::new(plan)));
        let id = d.next_id();
        assert!(d.write(&id, b"data").is_err());
        assert!(!d.contains(&id));
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
    }

    #[test]
    fn a_per_item_write_takes_one_injector_operation() {
        let dir = tempfile::tempdir().unwrap();
        let d = file_dir(dir.path(), Some(FaultInjector::new(FaultPlan::new(0))));
        for _ in 0..3 {
            d.write(&d.next_id(), b"x").unwrap();
        }
        assert_eq!(d.faults().unwrap().ops(), 3);
        assert_eq!(d.accounting.syncs.load(Ordering::Relaxed), 6, "payload + directory each");
        assert_eq!(d.accounting.written.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn missing_ids_are_typed_errors() {
        let dir = tempfile::tempdir().unwrap();
        let d = file_dir(dir.path(), None);
        let missing = FileId::from_string("no-1".into());
        assert!(matches!(d.read(&missing), Err(StoreError::MissingFile(_))));
        assert!(matches!(d.size(&missing), Err(StoreError::MissingFile(_))));
        assert!(matches!(d.remove(&missing), Err(StoreError::MissingFile(_))));
        assert!(!d.contains(&missing));
    }

    #[test]
    fn reopen_continues_the_id_sequence_and_ids_lists_sorted() {
        let dir = tempfile::tempdir().unwrap();
        let first = {
            let d = file_dir(dir.path(), None);
            let id = d.next_id();
            d.write(&id, b"a").unwrap();
            id
        };
        let d = file_dir(dir.path(), None);
        let second = d.next_id();
        d.write(&second, b"b").unwrap();
        assert_ne!(first, second);
        assert_eq!(d.read(&first).unwrap(), b"a");
        let mut expect = vec![first, second];
        expect.sort();
        assert_eq!(d.ids().unwrap(), expect);
    }

    #[test]
    fn colliding_nonces_never_overwrite() {
        // Regression: two handles whose nonces collide (and whose counters
        // restarted at the same point, as after a stale reopen scan) used to
        // hand out the same id and silently clobber each other's bytes. The
        // exists-check fallback must skip taken ids.
        let dir = tempfile::tempdir().unwrap();
        let mut a = file_dir(dir.path(), None);
        let mut b = file_dir(dir.path(), None);
        a.nonce = 0xdead_beef;
        b.nonce = 0xdead_beef;
        let mut written = Vec::new();
        for i in 0..10u8 {
            for (d, tag) in [(&a, b'a'), (&b, b'b')] {
                let id = d.next_id();
                d.write(&id, &[tag, i]).unwrap();
                written.push((id, vec![tag, i]));
            }
        }
        for (id, bytes) in &written {
            assert_eq!(&a.read(id).unwrap(), bytes, "no file was overwritten");
        }
        assert_eq!(a.ids().unwrap().len(), 20);
    }

    #[test]
    fn concurrent_writers_across_handles_stay_unique() {
        let dir = tempfile::tempdir().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|w: u8| {
                let d = file_dir(dir.path(), None);
                std::thread::spawn(move || {
                    (0..25u8)
                        .map(|i| {
                            let id = d.next_id();
                            d.write(&id, &[w, i]).unwrap();
                            (id, vec![w, i])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = std::collections::HashSet::new();
        let reader = file_dir(dir.path(), None);
        for h in handles {
            for (id, expect) in h.join().unwrap() {
                assert_eq!(reader.read(&id).unwrap(), expect, "content intact");
                assert!(all.insert(id), "two writers produced the same id");
            }
        }
        assert_eq!(reader.ids().unwrap().len(), 100);
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
    fn a_directory_that_cannot_be_opened_is_skipped_and_counts_no_sync() {
        let dir = tempfile::tempdir().unwrap();
        assert!(sync_dir(dir.path()).unwrap());
        assert!(!sync_dir(&dir.path().join("missing")).unwrap());
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
