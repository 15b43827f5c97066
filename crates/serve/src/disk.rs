//! On-disk persistence for the content-addressed result cache.
//!
//! The in-memory [`ResultCache`](crate::cache::ResultCache) dies with
//! the process; this layer keeps `fingerprint → response bytes`
//! entries on disk so a restarted service comes up warm and a sweep
//! can pre-warm the grid once for every later process.
//!
//! Layout: one file per entry under a directory keyed by
//! [`FINGERPRINT_VERSION`] (`<root>/v<N>/<fingerprint>.bin`). A
//! version bump changes the directory name, so stale entries from an
//! older canonical encoding are simply never seen again — a clean cold
//! start instead of silent key collisions.
//!
//! Entry format (all integers little-endian):
//!
//! ```text
//! "WGC1" | fingerprint u64 | payload_len u64 | payload | digest u64
//! ```
//!
//! where the digest is a [`ConfigHasher`] run over the fingerprint,
//! the length, and the payload. A truncated, torn, or bit-flipped file
//! fails validation, is deleted, and reads as a miss — corruption can
//! degrade the cache but never serve wrong bytes.
//!
//! Writes are **write-behind**: `put` enqueues onto a dedicated writer
//! thread (the request path never waits on the filesystem), which
//! writes `*.tmp` and atomically renames into place. The store is
//! size-capped: least-recently-used entries are evicted both when the
//! directory is scanned at startup (ordered by file mtime) and as the
//! writer pushes the total over budget.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::SystemTime;

use warped_gates::fingerprint::{ConfigHasher, FINGERPRINT_VERSION};

const MAGIC: &[u8; 4] = b"WGC1";
/// Fixed bytes around the payload: magic + fingerprint + len + digest.
const OVERHEAD: usize = 4 + 8 + 8 + 8;
/// Domain tag separating entry digests from every other
/// [`ConfigHasher`] use in the workspace.
const DIGEST_TAG: u64 = 0x6469_736b_6361_6368; // "diskcach"

fn digest(fingerprint: u64, payload: &[u8]) -> u64 {
    ConfigHasher::new(DIGEST_TAG)
        .word(fingerprint)
        .bytes(payload)
        .finish()
}

struct Tracked {
    /// Entry file size on disk (payload + framing).
    len: u64,
    /// Recency stamp; larger is more recent.
    last_used: u64,
}

struct Index {
    entries: HashMap<u64, Tracked>,
    total: u64,
    tick: u64,
    /// Writes enqueued but not yet on disk (flush waits on zero).
    pending: u64,
}

struct Shared {
    dir: PathBuf,
    budget: u64,
    index: Mutex<Index>,
    flushed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A queued write-behind entry: fingerprint and the bytes to persist.
type PendingWrite = (u64, Arc<Vec<u8>>);

/// The persistent warm cache. See the module docs for format and
/// eviction rules.
pub struct DiskCache {
    shared: Arc<Shared>,
    writer: Option<(Sender<PendingWrite>, JoinHandle<()>)>,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("dir", &self.shared.dir)
            .field("budget", &self.shared.budget)
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

impl DiskCache {
    /// Opens (creating if needed) the store for the current
    /// [`FINGERPRINT_VERSION`] under `root`, scanning existing entries
    /// and evicting the least recently used until `byte_budget` fits.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the directory.
    pub fn open(root: impl AsRef<Path>, byte_budget: u64) -> io::Result<Self> {
        Self::open_versioned(root, FINGERPRINT_VERSION, byte_budget)
    }

    /// [`open`](Self::open) under an explicit version key (tests use
    /// this to prove a version bump cold-starts cleanly).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the directory.
    pub fn open_versioned(
        root: impl AsRef<Path>,
        version: u64,
        byte_budget: u64,
    ) -> io::Result<Self> {
        let dir = root.as_ref().join(format!("v{version}"));
        fs::create_dir_all(&dir)?;

        // Scan: adopt every valid-looking entry, oldest-mtime first so
        // the recency stamps make the load-time eviction LRU. Full
        // payload validation happens lazily on `get` — the scan only
        // trusts file names and sizes, so startup stays O(entries).
        let mut found: Vec<(u64, u64, SystemTime)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".bin")) else {
                // Leftover *.tmp from a crash mid-write, or foreign
                // files: sweep them out.
                let _ = fs::remove_file(entry.path());
                continue;
            };
            let Ok(fingerprint) = u64::from_str_radix(stem, 16) else {
                let _ = fs::remove_file(entry.path());
                continue;
            };
            let meta = entry.metadata()?;
            if meta.len() < OVERHEAD as u64 {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((fingerprint, meta.len(), mtime));
        }
        found.sort_by_key(|(fingerprint, _, mtime)| (*mtime, *fingerprint));

        let mut index = Index {
            entries: HashMap::new(),
            total: 0,
            tick: 0,
            pending: 0,
        };
        for (fingerprint, len, _) in found {
            let last_used = index.tick;
            index.tick += 1;
            index.total += len;
            index
                .entries
                .insert(fingerprint, Tracked { len, last_used });
        }
        let shared = Arc::new(Shared {
            dir,
            budget: byte_budget.max(1),
            index: Mutex::new(index),
            flushed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        shared.evict_over_budget();

        let (tx, rx) = mpsc::channel::<(u64, Arc<Vec<u8>>)>();
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("warped-serve-diskcache".to_owned())
            .spawn(move || {
                for (fingerprint, bytes) in rx {
                    writer_shared.write_entry(fingerprint, &bytes);
                    let mut index = writer_shared.lock();
                    index.pending -= 1;
                    if index.pending == 0 {
                        writer_shared.flushed.notify_all();
                    }
                }
            })?;

        Ok(DiskCache {
            shared,
            writer: Some((tx, writer)),
        })
    }

    /// The directory entries live in (version segment included).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Reads come back warm so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Reads that found nothing usable on disk so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed)
    }

    /// Entries deleted under byte pressure so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.shared.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently accounted to entries on disk.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shared.lock().total
    }

    /// Entries currently on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().entries.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `fingerprint` up, validating the entry end to end. A
    /// corrupt or truncated file is deleted and reads as a miss.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Vec<u8>> {
        {
            let mut index = self.shared.lock();
            let tick = index.tick;
            match index.entries.get_mut(&fingerprint) {
                Some(tracked) => tracked.last_used = tick,
                None => {
                    drop(index);
                    self.shared.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            index.tick += 1;
        }
        match read_entry(&self.shared.entry_path(fingerprint), fingerprint) {
            Some(payload) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                // Validation failed: drop the entry so the slot heals.
                self.shared.remove(fingerprint);
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Enqueues `bytes` for persistence under `fingerprint`
    /// (write-behind: returns immediately; [`flush`](Self::flush)
    /// waits for the disk).
    pub fn put(&self, fingerprint: u64, bytes: Arc<Vec<u8>>) {
        let Some((tx, _)) = &self.writer else { return };
        {
            let mut index = self.shared.lock();
            if index.entries.contains_key(&fingerprint) {
                return; // already on disk (a queued write is indexed only once written)
            }
            index.pending += 1;
        }
        if tx.send((fingerprint, bytes)).is_err() {
            let mut index = self.shared.lock();
            index.pending -= 1;
        }
    }

    /// Blocks until every enqueued write has reached the filesystem.
    pub fn flush(&self) {
        let mut index = self.shared.lock();
        while index.pending > 0 {
            index = self
                .shared
                .flushed
                .wait(index)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        // Closing the channel lets the writer drain and exit; joining
        // guarantees every accepted write is durable before the
        // process (or test) moves on.
        if let Some((tx, handle)) = self.writer.take() {
            drop(tx);
            let _ = handle.join();
        }
    }
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.bin"))
    }

    fn remove(&self, fingerprint: u64) {
        let mut index = self.lock();
        if let Some(tracked) = index.entries.remove(&fingerprint) {
            index.total -= tracked.len;
        }
        drop(index);
        let _ = fs::remove_file(self.entry_path(fingerprint));
    }

    /// Writes one entry atomically (tmp + rename), then evicts to
    /// budget. Runs on the writer thread only.
    fn write_entry(&self, fingerprint: u64, payload: &[u8]) {
        let path = self.entry_path(fingerprint);
        let tmp = path.with_extension("tmp");
        let len = (payload.len() + OVERHEAD) as u64;
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&fingerprint.to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(payload)?;
            f.write_all(&digest(fingerprint, payload).to_le_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let mut index = self.lock();
        let last_used = index.tick;
        index.tick += 1;
        index.total += len;
        if let Some(old) = index
            .entries
            .insert(fingerprint, Tracked { len, last_used })
        {
            index.total -= old.len;
        }
        drop(index);
        self.evict_over_budget();
    }

    /// Deletes least-recently-used entries until the budget fits.
    fn evict_over_budget(&self) {
        loop {
            let victim = {
                let index = self.lock();
                if index.total <= self.budget {
                    return;
                }
                index
                    .entries
                    .iter()
                    .min_by_key(|(fingerprint, t)| (t.last_used, **fingerprint))
                    .map(|(fingerprint, _)| *fingerprint)
            };
            let Some(fingerprint) = victim else { return };
            self.remove(fingerprint);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Reads and fully validates one entry file; `None` on any mismatch.
fn read_entry(path: &Path, fingerprint: u64) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .ok()?;
    if bytes.len() < OVERHEAD || &bytes[..4] != MAGIC {
        return None;
    }
    let stored_fp = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    let len = u64::from_le_bytes(bytes[12..20].try_into().ok()?) as usize;
    if stored_fp != fingerprint || bytes.len() != OVERHEAD + len {
        return None;
    }
    let payload = &bytes[20..20 + len];
    let stored_digest = u64::from_le_bytes(bytes[20 + len..].try_into().ok()?);
    if stored_digest != digest(fingerprint, payload) {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("warped_disk_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_a_reopen() {
        let root = scratch("roundtrip");
        let payload = Arc::new(b"{\"cycles\":123}\n".to_vec());
        {
            let cache = DiskCache::open(&root, 1 << 20).unwrap();
            assert!(cache.get(7).is_none(), "empty store misses");
            cache.put(7, Arc::clone(&payload));
            cache.flush();
            assert_eq!(cache.get(7).as_deref(), Some(payload.as_slice()));
        }
        // A new process (new DiskCache) sees the same entry.
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7).as_deref(), Some(payload.as_slice()));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_and_truncated_entries_are_rejected_and_deleted() {
        let root = scratch("corrupt");
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        cache.put(1, Arc::new(b"payload one".to_vec()));
        cache.put(2, Arc::new(b"payload two".to_vec()));
        cache.flush();

        // Flip a payload byte in entry 1; truncate entry 2.
        let p1 = cache.dir().join(format!("{:016x}.bin", 1));
        let mut bytes = fs::read(&p1).unwrap();
        bytes[OVERHEAD - 10] ^= 0x40;
        fs::write(&p1, &bytes).unwrap();
        let p2 = cache.dir().join(format!("{:016x}.bin", 2));
        let bytes = fs::read(&p2).unwrap();
        fs::write(&p2, &bytes[..bytes.len() - 3]).unwrap();

        assert!(cache.get(1).is_none(), "bit flip must not serve");
        assert!(cache.get(2).is_none(), "truncation must not serve");
        assert!(!p1.exists() && !p2.exists(), "bad entries are deleted");
        assert_eq!(cache.len(), 0, "index healed");
        // The slot is writable again.
        cache.put(1, Arc::new(b"fresh".to_vec()));
        cache.flush();
        assert_eq!(cache.get(1).as_deref(), Some(b"fresh".as_slice()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_restart_sweeps_torn_tmps_and_rejects_truncated_entries() {
        let root = scratch("crash");
        let survivor = Arc::new(b"{\"cycles\":42}\n".to_vec());
        let victim_path;
        {
            let cache = DiskCache::open(&root, 1 << 20).unwrap();
            cache.put(0xA, Arc::clone(&survivor));
            cache.put(0xB, Arc::new(b"about to be torn mid-write".to_vec()));
            cache.flush();
            victim_path = cache.dir().join(format!("{:016x}.bin", 0xB_u64));
        }
        // Emulate a crash mid-write-behind: a writer killed between
        // tmp-create and rename leaves an orphaned *.tmp, and a torn
        // write leaves entry B short of its framed length.
        let dir = victim_path.parent().unwrap().to_path_buf();
        let tmp = dir.join(format!("{:016x}.bin.tmp", 0xC_u64));
        fs::write(&tmp, b"WGC1 half a frame").unwrap();
        let bytes = fs::read(&victim_path).unwrap();
        fs::write(&victim_path, &bytes[..bytes.len() - 5]).unwrap();

        // The restart must serve neither artifact of the crash — and
        // still serve the intact entry.
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        assert!(!tmp.exists(), "orphaned tmp is swept on startup");
        assert!(
            cache.get(0xC).is_none(),
            "the torn tmp never became an entry"
        );
        assert!(cache.get(0xB).is_none(), "truncated entry is not served");
        assert!(!victim_path.exists(), "…and is deleted, not left to rot");
        assert_eq!(
            cache.get(0xA).as_deref(),
            Some(survivor.as_slice()),
            "intact entries survive the crash"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_mismatch_is_a_clean_cold_start() {
        let root = scratch("version");
        {
            let old = DiskCache::open_versioned(&root, FINGERPRINT_VERSION - 1, 1 << 20).unwrap();
            old.put(9, Arc::new(b"old encoding".to_vec()));
            old.flush();
        }
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        assert!(cache.is_empty(), "other-version entries are invisible");
        assert!(cache.get(9).is_none());
        // The old directory is untouched (a rollback still finds it).
        let old = DiskCache::open_versioned(&root, FINGERPRINT_VERSION - 1, 1 << 20).unwrap();
        assert_eq!(old.get(9).as_deref(), Some(b"old encoding".as_slice()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_caps_bytes_at_runtime_and_on_load() {
        let root = scratch("evict");
        let payload = vec![0u8; 100];
        {
            let cache = DiskCache::open(&root, 400).unwrap();
            for fingerprint in 0..6u64 {
                cache.put(fingerprint, Arc::new(payload.clone()));
                cache.flush(); // deterministic write order → LRU by key
            }
            assert!(cache.bytes() <= 400, "runtime budget: {}", cache.bytes());
            assert!(cache.evictions() >= 3);
            assert!(cache.get(0).is_none(), "oldest evicted");
            assert!(cache.get(5).is_some(), "newest survives");
        }
        // Reopen with a tighter budget: load-time eviction trims again.
        let cache = DiskCache::open(&root, 150).unwrap();
        assert!(cache.bytes() <= 150, "load budget: {}", cache.bytes());
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let root = scratch("tmpsweep");
        let dir = root.join(format!("v{FINGERPRINT_VERSION}"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("0000000000000007.tmp"), b"torn").unwrap();
        fs::write(dir.join("not-an-entry"), b"junk").unwrap();
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        assert!(cache.is_empty());
        assert!(!dir.join("0000000000000007.tmp").exists());
        assert!(!dir.join("not-an-entry").exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// One entry as the format's first writer framed it: fingerprint
    /// `0x0123_4567_89ab_cdef`, the payload below, and its digest.
    /// Entries already on disk must keep reading back, so neither the
    /// framing nor the digest fold may change.
    const PINNED_ENTRY: &str = "57474331efcdab896745230122000000000000007b2262656e63686d61726b\
                                223a226e77222c226379636c6573223a31323334357d0a8ed7e0c0f359811d";
    const PINNED_PAYLOAD: &[u8] = b"{\"benchmark\":\"nw\",\"cycles\":12345}\n";

    #[test]
    fn a_pinned_entry_reads_back_and_is_written_identically() {
        let fingerprint = 0x0123_4567_89ab_cdef;
        let pinned: Vec<u8> = (0..PINNED_ENTRY.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_ENTRY[i..i + 2], 16).unwrap())
            .collect();
        let root = scratch("pinned");
        let dir = root.join(format!("v{FINGERPRINT_VERSION}"));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{fingerprint:016x}.bin"));
        fs::write(&path, &pinned).unwrap();
        {
            let cache = DiskCache::open(&root, 1 << 20).unwrap();
            assert_eq!(cache.get(fingerprint).as_deref(), Some(PINNED_PAYLOAD));
        }
        fs::remove_file(&path).unwrap();
        let cache = DiskCache::open(&root, 1 << 20).unwrap();
        cache.put(fingerprint, Arc::new(PINNED_PAYLOAD.to_vec()));
        cache.flush();
        assert_eq!(fs::read(&path).unwrap(), pinned);
        let _ = fs::remove_dir_all(&root);
    }
}
