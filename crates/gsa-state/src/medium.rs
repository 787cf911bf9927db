//! Byte-level storage under the journal store.
//!
//! A [`Medium`] holds exactly two objects: one snapshot blob (replaced
//! atomically) and one append-only journal. The journal store layers
//! record framing, compaction and recovery on top; the medium only
//! moves bytes. [`MemMedium`] models a disk with an explicit
//! synced/unsynced boundary so the chaos harness can inject
//! kill-before-fsync, torn-tail and bit-flip faults deterministically;
//! [`FsMedium`] is the same contract over real files.

use parking_lot::Mutex;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Byte-level storage for one server's durable state: a snapshot blob
/// plus an append-only journal.
///
/// Appends become durable only after [`sync_journal`](Medium::sync_journal);
/// what a crash preserves is the synced prefix (plus, for a torn write,
/// some prefix of the unsynced bytes). [`replace_snapshot`](Medium::replace_snapshot)
/// is atomic-and-durable: after it returns, a crash observes either the
/// old snapshot or the new one, never a mixture.
pub trait Medium {
    /// Current snapshot bytes (empty if none was ever written).
    fn read_snapshot(&mut self) -> Vec<u8>;
    /// Atomically replace the snapshot and make it durable.
    fn replace_snapshot(&mut self, bytes: &[u8]);
    /// Append bytes to the journal. Not durable until synced.
    fn append_journal(&mut self, bytes: &[u8]);
    /// Make all appended journal bytes durable.
    fn sync_journal(&mut self);
    /// All journal bytes visible to this process (synced and not).
    fn read_journal(&mut self) -> Vec<u8>;
    /// Discard the journal (after its contents were folded into a
    /// snapshot). Durable on return.
    fn truncate_journal(&mut self);
}

#[derive(Debug, Default)]
struct MemInner {
    snapshot: Vec<u8>,
    /// Journal bytes that survive a crash.
    synced: Vec<u8>,
    /// Appended but not yet synced; a crash drops these.
    pending: Vec<u8>,
    syncs: u64,
}

/// In-memory [`Medium`] with deterministic fault injection.
///
/// Cloning yields a handle to the same storage (it is an
/// `Arc<Mutex<_>>` inside), so the `System` harness can keep a handle
/// per server and inject faults while the store owns its own clone —
/// exactly how a disk outlives the process using it.
#[derive(Debug, Clone, Default)]
pub struct MemMedium(Arc<Mutex<MemInner>>);

impl MemMedium {
    /// A fresh, empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// A crash: every appended-but-unsynced byte is lost.
    pub fn crash(&self) {
        self.0.lock().pending.clear();
    }

    /// A torn write at crash time: the first `keep` unsynced bytes
    /// made it to the platter before the power went; the rest did not.
    /// This is the kill-between-append-and-fsync fault.
    #[cfg(test)]
    pub(crate) fn crash_keeping(&self, keep: usize) {
        let mut inner = self.0.lock();
        let keep = keep.min(inner.pending.len());
        let kept: Vec<u8> = inner.pending[..keep].to_vec();
        inner.synced.extend_from_slice(&kept);
        inner.pending.clear();
    }

    /// Truncate `n` bytes off the end of the *durable* journal — a torn
    /// final record discovered on restart.
    pub fn tear_tail(&self, n: usize) {
        let mut inner = self.0.lock();
        let len = inner.synced.len().saturating_sub(n);
        inner.synced.truncate(len);
    }

    /// Flip every bit of the byte `n` from the end of the durable
    /// journal (1 = last byte). No-op if the journal is shorter.
    pub fn flip_tail(&self, n: usize) {
        let mut inner = self.0.lock();
        if n >= 1 && n <= inner.synced.len() {
            let idx = inner.synced.len() - n;
            inner.synced[idx] ^= 0xFF;
        }
    }

    /// Flip every bit of the durable journal byte at `idx` — mid-journal
    /// corruption. No-op if out of range.
    pub fn flip_at(&self, idx: usize) {
        let mut inner = self.0.lock();
        if idx < inner.synced.len() {
            inner.synced[idx] ^= 0xFF;
        }
    }

    /// Durable journal length in bytes.
    pub fn journal_len(&self) -> usize {
        self.0.lock().synced.len()
    }

    /// Appended-but-unsynced journal bytes.
    pub fn pending_len(&self) -> usize {
        self.0.lock().pending.len()
    }

    /// Snapshot length in bytes (0 = no snapshot).
    pub fn snapshot_len(&self) -> usize {
        self.0.lock().snapshot.len()
    }

    /// How many journal syncs have been issued (fsync-batching tests).
    pub fn syncs(&self) -> u64 {
        self.0.lock().syncs
    }

    /// An independent copy of the current storage contents — a disk
    /// image, not another handle. Fault sweeps use this to damage one
    /// copy per trial while the original stays pristine.
    pub fn clone_deep(&self) -> MemMedium {
        let inner = self.0.lock();
        MemMedium(Arc::new(Mutex::new(MemInner {
            snapshot: inner.snapshot.clone(),
            synced: inner.synced.clone(),
            pending: inner.pending.clone(),
            syncs: inner.syncs,
        })))
    }
}

impl Medium for MemMedium {
    fn read_snapshot(&mut self) -> Vec<u8> {
        self.0.lock().snapshot.clone()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) {
        self.0.lock().snapshot = bytes.to_vec();
    }

    fn append_journal(&mut self, bytes: &[u8]) {
        self.0.lock().pending.extend_from_slice(bytes);
    }

    fn sync_journal(&mut self) {
        let mut inner = self.0.lock();
        inner.syncs += 1;
        let pending = std::mem::take(&mut inner.pending);
        inner.synced.extend_from_slice(&pending);
    }

    fn read_journal(&mut self) -> Vec<u8> {
        let inner = self.0.lock();
        let mut out = inner.synced.clone();
        out.extend_from_slice(&inner.pending);
        out
    }

    fn truncate_journal(&mut self) {
        let mut inner = self.0.lock();
        inner.synced.clear();
        inner.pending.clear();
    }
}

/// Real-files [`Medium`]: `state.snap` and `state.journal` inside one
/// directory, snapshot replacement via write-temp + rename.
///
/// Disk I/O errors are treated as fatal and panic with the failing
/// path: the durability layer cannot honour its contract on a broken
/// disk, and pretending otherwise would corrupt state silently. (Fault
/// *injection* never goes through this backend — that is
/// [`MemMedium`]'s job.)
#[derive(Debug)]
pub struct FsMedium {
    snap: PathBuf,
    journal_path: PathBuf,
    journal: Option<fs::File>,
}

impl FsMedium {
    /// Open (creating the directory if needed) the medium rooted at `dir`.
    pub fn open(dir: &Path) -> Self {
        fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("create state dir {}: {e}", dir.display()));
        Self {
            snap: dir.join("state.snap"),
            journal_path: dir.join("state.journal"),
            journal: None,
        }
    }

    fn journal_file(&mut self) -> &mut fs::File {
        if self.journal.is_none() {
            let f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(&self.journal_path)
                .unwrap_or_else(|e| panic!("open journal {}: {e}", self.journal_path.display()));
            self.journal = Some(f);
        }
        self.journal.as_mut().expect("journal just opened")
    }
}

impl Medium for FsMedium {
    fn read_snapshot(&mut self) -> Vec<u8> {
        fs::read(&self.snap).unwrap_or_default()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) {
        let tmp = self.snap.with_extension("snap.tmp");
        let mut f = fs::File::create(&tmp)
            .unwrap_or_else(|e| panic!("create snapshot temp {}: {e}", tmp.display()));
        f.write_all(bytes)
            .unwrap_or_else(|e| panic!("write snapshot {}: {e}", tmp.display()));
        f.sync_data()
            .unwrap_or_else(|e| panic!("sync snapshot {}: {e}", tmp.display()));
        drop(f);
        fs::rename(&tmp, &self.snap)
            .unwrap_or_else(|e| panic!("rename snapshot into {}: {e}", self.snap.display()));
        // Best-effort directory sync so the rename itself is durable;
        // platforms that refuse to open a directory just skip it.
        if let Some(dir) = self.snap.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }

    fn append_journal(&mut self, bytes: &[u8]) {
        let path = self.journal_path.clone();
        self.journal_file()
            .write_all(bytes)
            .unwrap_or_else(|e| panic!("append journal {}: {e}", path.display()));
    }

    fn sync_journal(&mut self) {
        let path = self.journal_path.clone();
        self.journal_file()
            .sync_data()
            .unwrap_or_else(|e| panic!("sync journal {}: {e}", path.display()));
    }

    fn read_journal(&mut self) -> Vec<u8> {
        // Flush the append handle's userspace view first: on all std
        // platforms write_all hits the fd directly, so a plain read of
        // the path sees every appended byte.
        fs::read(&self.journal_path).unwrap_or_default()
    }

    fn truncate_journal(&mut self) {
        let path = self.journal_path.clone();
        let f = self.journal_file();
        f.set_len(0)
            .unwrap_or_else(|e| panic!("truncate journal {}: {e}", path.display()));
        f.sync_data()
            .unwrap_or_else(|e| panic!("sync truncated journal {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_medium_crash_drops_unsynced_bytes() {
        let mut m = MemMedium::new();
        m.append_journal(b"abc");
        m.sync_journal();
        m.append_journal(b"def");
        assert_eq!(m.read_journal(), b"abcdef");
        m.crash();
        assert_eq!(m.read_journal(), b"abc");
    }

    #[test]
    fn mem_medium_torn_write_keeps_a_prefix() {
        let mut m = MemMedium::new();
        m.append_journal(b"abc");
        m.sync_journal();
        m.append_journal(b"defgh");
        m.crash_keeping(2);
        assert_eq!(m.read_journal(), b"abcde");
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn mem_medium_shared_handles_see_the_same_storage() {
        let mut a = MemMedium::new();
        let mut b = a.clone();
        a.append_journal(b"xy");
        a.sync_journal();
        assert_eq!(b.read_journal(), b"xy");
        b.tear_tail(1);
        assert_eq!(a.read_journal(), b"x");
    }

    #[test]
    fn mem_medium_flips_target_the_durable_journal() {
        let mut m = MemMedium::new();
        m.append_journal(&[0x00, 0x10, 0x20]);
        m.sync_journal();
        m.flip_tail(1);
        assert_eq!(m.read_journal(), vec![0x00, 0x10, 0xDF]);
        m.flip_at(0);
        assert_eq!(m.read_journal(), vec![0xFF, 0x10, 0xDF]);
        // Out-of-range injections are no-ops, never panics.
        m.flip_tail(99);
        m.flip_at(99);
        assert_eq!(m.journal_len(), 3);
    }

    #[test]
    fn fs_medium_round_trips_snapshot_and_journal() {
        let dir = std::env::temp_dir().join(format!("gsa-state-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut m = FsMedium::open(&dir);
            assert!(m.read_snapshot().is_empty());
            assert!(m.read_journal().is_empty());
            m.append_journal(b"rec1");
            m.append_journal(b"rec2");
            m.sync_journal();
            m.replace_snapshot(b"snap-v1");
            assert_eq!(m.read_journal(), b"rec1rec2");
            assert_eq!(m.read_snapshot(), b"snap-v1");
            m.truncate_journal();
            assert!(m.read_journal().is_empty());
            m.append_journal(b"rec3");
            m.sync_journal();
        }
        // A fresh handle (new process, conceptually) sees the durable state.
        let mut m = FsMedium::open(&dir);
        assert_eq!(m.read_snapshot(), b"snap-v1");
        assert_eq!(m.read_journal(), b"rec3");
        let _ = fs::remove_dir_all(&dir);
    }
}
