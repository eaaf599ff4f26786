//! Two-tier content-addressed result cache: in-memory LRU in front of
//! an optional on-disk store.
//!
//! Keys are the fnv1a64 job keys of [`crate::job::JobSpec::cache_key`];
//! values are canonical payload bytes ([`crate::job::JobPayload::to_bytes`]).
//! Because the key already covers the canonicalized spec, the seed and
//! the code-version fingerprint, a lookup can never return a stale or
//! semantically different result — the cache only ever deduplicates
//! byte-identical recomputation.
//!
//! The memory tier stores each entry *pre-framed* as a shared
//! [`FramedPayload`] — the exact `,"payload":<bytes>}\n` tail of a
//! `done` frame in one `Arc<[u8]>` allocation. A memory hit is an `Arc`
//! clone; the event loop splices the same allocation into every
//! interested socket without copying the payload again (see
//! [`crate::protocol::done_head`] for the byte-identity contract).
//!
//! On-disk layout mirrors the fuzz corpus idiom and stores the *raw*
//! payload bytes (framing is a memory-tier concern; the disk format is
//! unchanged across versions):
//!
//! ```text
//! <dir>/<16-hex-key>.bin    payload bytes
//! <dir>/<16-hex-key>.json   sidecar (DiskMeta: length, payload hash,
//!                           code version)
//! ```
//!
//! Writes go through a temp file plus rename, so a crash mid-write
//! leaves either the old entry or none — never a torn one. Reads verify
//! the sidecar's payload hash and code version; any mismatch is treated
//! as a miss and the entry is removed (counted under
//! [`CacheStats::corrupt`]), so a corrupted store degrades to
//! recomputation instead of serving bad bytes. A disk hit streams the
//! payload straight into its final framed allocation (sidecar JSON goes
//! through a reusable scratch buffer), so even the cold tier performs
//! exactly one payload-sized allocation per hit.
//!
//! With [`ResultCache::with_disk_cap`], the disk tier enforces a byte
//! cap on payload bytes: after each insert, whole entries are removed
//! oldest-first (by a monotonic insertion sequence persisted in the
//! sidecar) until the store fits. Eviction removes the sidecar before
//! the payload, so an interrupted eviction leaves an unreferenced
//! payload file — never a referenced-but-missing one. The newest entry
//! is always kept, so a single payload larger than the cap still
//! caches; the cap is a bound on steady-state growth, not a hard
//! invariant.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use saseval_types::hash::content_hash;
use serde::{Deserialize, Serialize};

use crate::job::code_version;

/// Which tier answered a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory LRU.
    Memory,
    /// On-disk store (the hit is promoted to memory).
    Disk,
}

impl CacheTier {
    /// The wire name of the tier (`"memory"` / `"disk"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
        }
    }
}

/// A result payload pre-framed as the shared tail of a `done` frame:
/// one `Arc<[u8]>` holding `,"payload":<canonical payload bytes>}\n`.
///
/// Appending [`FramedPayload::tail`] after [`crate::protocol::done_head`]
/// reproduces the legacy single-buffer frame byte for byte. Cloning is
/// an `Arc` refcount bump, which is what makes cached serving zero-copy:
/// every waiter on the same result splices the same allocation.
#[derive(Debug, Clone)]
pub struct FramedPayload {
    bytes: Arc<[u8]>,
}

impl FramedPayload {
    /// Framing bytes preceding the payload: `,"payload":`.
    pub const PREFIX: &'static [u8] = b",\"payload\":";
    /// Framing bytes following the payload: `}\n` (object close plus
    /// the line terminator).
    pub const SUFFIX: &'static [u8] = b"}\n";

    /// Frames raw canonical payload bytes (one allocation, exact size).
    pub fn frame(payload: &[u8]) -> Self {
        let mut bytes = Vec::with_capacity(Self::PREFIX.len() + payload.len() + Self::SUFFIX.len());
        bytes.extend_from_slice(Self::PREFIX);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(Self::SUFFIX);
        FramedPayload { bytes: bytes.into() }
    }

    /// Adopts an already-framed buffer (the disk tier builds the
    /// framing in place while streaming the payload off disk).
    fn from_framed(bytes: Vec<u8>) -> Self {
        debug_assert!(bytes.starts_with(Self::PREFIX) && bytes.ends_with(Self::SUFFIX));
        FramedPayload { bytes: bytes.into() }
    }

    /// The full tail bytes (`,"payload":…}\n`), spliced verbatim after
    /// a done-frame head.
    pub fn tail(&self) -> &[u8] {
        &self.bytes
    }

    /// Shares the tail allocation with a socket writer — an `Arc`
    /// clone, never a byte copy.
    pub fn share(&self) -> Arc<[u8]> {
        Arc::clone(&self.bytes)
    }

    /// The raw canonical payload bytes inside the framing.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[Self::PREFIX.len()..self.bytes.len() - Self::SUFFIX.len()]
    }
}

impl PartialEq for FramedPayload {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for FramedPayload {}

/// Monotonic hit/miss counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups answered by the in-memory LRU.
    pub memory_hits: AtomicU64,
    /// Lookups answered by the on-disk store.
    pub disk_hits: AtomicU64,
    /// Lookups answered by neither tier.
    pub misses: AtomicU64,
    /// On-disk entries rejected (hash/version mismatch) and removed.
    pub corrupt: AtomicU64,
    /// On-disk entries removed by the byte-cap eviction.
    pub evicted: AtomicU64,
}

/// Sidecar metadata stored next to each on-disk payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct DiskMeta {
    /// 16-hex cache key (the file stem).
    key: String,
    /// Payload length in bytes.
    len: usize,
    /// fnv1a64 content hash of the payload bytes.
    payload_hash: String,
    /// Code-version fingerprint that produced the payload.
    code_version: String,
    /// Monotonic insertion sequence; drives oldest-first eviction.
    /// Absent in stores written before the cap existed (treated as
    /// oldest).
    #[serde(default)]
    seq: u64,
}

/// In-memory LRU over pre-framed payloads. Recency is the deque order
/// (front = coldest); hits splice the entry to the back and hand back
/// an `Arc` clone of the framed bytes — no payload copy. Linear scans
/// are fine at the capacities a result cache runs at (payloads are few
/// and large, not many and tiny).
#[derive(Debug, Default)]
struct Lru {
    entries: VecDeque<(u64, FramedPayload)>,
    capacity: usize,
}

impl Lru {
    fn get(&mut self, key: u64) -> Option<FramedPayload> {
        let index = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(index).expect("index from position");
        let framed = entry.1.clone();
        self.entries.push_back(entry);
        Some(framed)
    }

    fn insert(&mut self, key: u64, framed: FramedPayload) {
        if let Some(index) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(index);
        }
        self.entries.push_back((key, framed));
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }
}

/// The two-tier cache. Thread-safe; shared across the event loop and
/// workers behind an `Arc`.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<Lru>,
    disk: Option<PathBuf>,
    /// Payload-byte cap for the disk tier; `None` = unbounded.
    disk_cap: Option<u64>,
    /// Next insertion sequence number, resumed past any sequence
    /// already on disk so restarts keep evicting oldest-first.
    seq: AtomicU64,
    version: String,
    /// Reusable sidecar-read scratch: disk hits stream the metadata
    /// through this buffer instead of allocating a fresh `String` per
    /// lookup.
    sidecar_scratch: Mutex<String>,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

impl ResultCache {
    /// A cache holding up to `mem_capacity` payloads in memory, backed
    /// by the on-disk store at `disk` when given. The disk directory is
    /// created lazily on first insert.
    pub fn new(mem_capacity: usize, disk: Option<PathBuf>) -> Self {
        Self::with_version(mem_capacity, disk, code_version())
    }

    /// [`ResultCache::new`] under an explicit code-version fingerprint
    /// (tests use this to prove version isolation).
    pub fn with_version(mem_capacity: usize, disk: Option<PathBuf>, version: String) -> Self {
        let seq = AtomicU64::new(next_seq(disk.as_deref()));
        ResultCache {
            mem: Mutex::new(Lru { entries: VecDeque::new(), capacity: mem_capacity.max(1) }),
            disk,
            disk_cap: None,
            seq,
            version,
            sidecar_scratch: Mutex::new(String::new()),
            stats: CacheStats::default(),
        }
    }

    /// Caps the disk tier at `cap` payload bytes (see the module docs
    /// for the eviction policy); `None` leaves it unbounded.
    pub fn with_disk_cap(mut self, cap: Option<u64>) -> Self {
        self.disk_cap = cap;
        self
    }

    fn mem(&self) -> std::sync::MutexGuard<'_, Lru> {
        match self.mem.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks `key` up, coldest tier last. Memory hits are `Arc` clones
    /// of the framed entry; disk hits are verified against their
    /// sidecar and promoted into memory (the promotion shares the same
    /// allocation).
    pub fn get(&self, key: u64) -> Option<(FramedPayload, CacheTier)> {
        if let Some(framed) = self.mem().get(key) {
            self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some((framed, CacheTier::Memory));
        }
        if let Some(framed) = self.disk_get(key) {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.mem().insert(key, framed.clone());
            return Some((framed, CacheTier::Disk));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `payload` under `key` in both tiers and returns the
    /// framed entry (the inserting worker sends the same allocation it
    /// cached). Disk-write failures are swallowed (the memory tier
    /// still serves the entry); a result cache must never fail the job
    /// that filled it.
    pub fn insert(&self, key: u64, payload: &[u8]) -> FramedPayload {
        let framed = FramedPayload::frame(payload);
        self.mem().insert(key, framed.clone());
        if self.disk.is_some() {
            let _ = self.disk_insert(key, payload);
        }
        framed
    }

    fn disk_get(&self, key: u64) -> Option<FramedPayload> {
        let dir = self.disk.as_deref()?;
        let stem = key_hex(key);
        let sidecar = dir.join(format!("{stem}.json"));
        let bin = dir.join(format!("{stem}.bin"));
        // A missing/unreadable sidecar is a plain miss (nothing there);
        // everything past this point failing means a *present* entry is
        // bad, which counts as corrupt and removes it.
        let meta: Option<DiskMeta> = {
            let mut scratch = match self.sidecar_scratch.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            scratch.clear();
            fs::File::open(&sidecar).ok()?.read_to_string(&mut scratch).ok()?;
            serde_json::from_str(&scratch).ok()
        };
        let verified = meta.and_then(|meta| {
            if meta.key != stem || meta.code_version != self.version {
                return None;
            }
            // Bound the framed allocation by the real file size before
            // trusting the sidecar's length claim.
            if fs::metadata(&bin).ok()?.len() != meta.len as u64 {
                return None;
            }
            // Stream the payload straight into its final framed slot:
            // one exact-size allocation for `,"payload":<bytes>}\n`, no
            // intermediate payload `Vec`.
            let mut framed = Vec::with_capacity(
                FramedPayload::PREFIX.len() + meta.len + FramedPayload::SUFFIX.len(),
            );
            framed.extend_from_slice(FramedPayload::PREFIX);
            let read = fs::File::open(&bin)
                .ok()?
                .take(meta.len as u64 + 1)
                .read_to_end(&mut framed)
                .ok()?;
            if read != meta.len {
                return None;
            }
            if content_hash(&framed[FramedPayload::PREFIX.len()..]) != meta.payload_hash {
                return None;
            }
            framed.extend_from_slice(FramedPayload::SUFFIX);
            Some(FramedPayload::from_framed(framed))
        });
        if verified.is_none() {
            // Corrupt or foreign-version entry: drop it so the slot can
            // be refilled by a fresh run.
            self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(&sidecar);
            let _ = fs::remove_file(&bin);
        }
        verified
    }

    fn disk_insert(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let dir = self.disk.as_deref().expect("checked by caller");
        fs::create_dir_all(dir)?;
        let stem = key_hex(key);
        let meta = DiskMeta {
            key: stem.clone(),
            len: payload.len(),
            payload_hash: content_hash(payload),
            code_version: self.version.clone(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        let json = serde_json::to_string_pretty(&meta)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Payload first, sidecar last: a reader that sees the sidecar is
        // guaranteed a complete payload; a crash in between leaves an
        // unreferenced payload file, not a torn entry.
        write_atomic(dir, &format!("{stem}.bin"), payload)?;
        write_atomic(dir, &format!("{stem}.json"), json.as_bytes())?;
        self.evict(dir);
        Ok(())
    }

    /// Enforces the disk byte cap: removes whole entries oldest-first
    /// until the payload bytes fit, always keeping the newest entry.
    /// Sidecar first, then payload — an interrupted eviction leaves an
    /// unreferenced payload file, never a served-but-missing one.
    fn evict(&self, dir: &Path) {
        let Some(cap) = self.disk_cap else { return };
        let mut entries = sidecar_metas(dir);
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        // Oldest sequence first; the stem breaks pre-cap-era ties
        // deterministically.
        entries.sort();
        let mut oldest = entries.into_iter().peekable();
        while total > cap {
            let Some((_, stem, len)) = oldest.next() else { break };
            if oldest.peek().is_none() {
                break; // never evict the entry just written
            }
            let _ = fs::remove_file(dir.join(format!("{stem}.json")));
            let _ = fs::remove_file(dir.join(format!("{stem}.bin")));
            self.stats.evicted.fetch_add(1, Ordering::Relaxed);
            total = total.saturating_sub(len);
        }
    }
}

/// All parseable sidecars in `dir` as `(seq, stem, payload_len)`.
/// Unparsable sidecars are skipped (the verified read path removes
/// them); orphan payload files are ignored — a payload without a
/// sidecar is also the transient state of an in-flight insert, so
/// sweeping them here would race the writer.
fn sidecar_metas(dir: &Path) -> Vec<(u64, String, u64)> {
    let Ok(read) = fs::read_dir(dir) else { return Vec::new() };
    read.flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                return None;
            }
            let meta: DiskMeta = serde_json::from_str(&fs::read_to_string(&path).ok()?).ok()?;
            Some((meta.seq, meta.key, meta.len as u64))
        })
        .collect()
}

/// The first unused insertion sequence of an existing store (0 for a
/// missing or empty directory).
fn next_seq(dir: Option<&Path>) -> u64 {
    let Some(dir) = dir else { return 0 };
    sidecar_metas(dir).into_iter().map(|(seq, _, _)| seq).max().map_or(0, |max| max + 1)
}

fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let unique = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("saseval-cache-test-{}-{unique}", std::process::id()))
    }

    /// Unframes a lookup back to `(raw payload, tier)` for assertions.
    fn raw_get(cache: &ResultCache, key: u64) -> Option<(Vec<u8>, CacheTier)> {
        cache.get(key).map(|(framed, tier)| (framed.payload().to_vec(), tier))
    }

    #[test]
    // The clone is the subject under test: a cloned frame must share the
    // original's allocation.
    #[allow(clippy::redundant_clone)]
    fn framing_round_trips_and_shares_one_allocation() {
        let framed = FramedPayload::frame(b"{\"x\":1}");
        assert_eq!(framed.tail(), b",\"payload\":{\"x\":1}}\n");
        assert_eq!(framed.payload(), b"{\"x\":1}");
        let a = framed.share();
        let b = framed.clone().share();
        assert!(Arc::ptr_eq(&a, &b), "clones share the framed allocation");
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        let cache = ResultCache::new(2, None);
        cache.insert(1, b"one");
        cache.insert(2, b"two");
        assert_eq!(raw_get(&cache, 1), Some((b"one".to_vec(), CacheTier::Memory)));
        // 2 is now coldest; inserting 3 evicts it.
        cache.insert(3, b"three");
        assert_eq!(raw_get(&cache, 2), None);
        assert_eq!(raw_get(&cache, 1), Some((b"one".to_vec(), CacheTier::Memory)));
        assert_eq!(cache.stats.memory_hits.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hits_share_the_inserted_allocation() {
        let cache = ResultCache::new(2, None);
        let inserted = cache.insert(1, b"one");
        let (hit_a, _) = cache.get(1).unwrap();
        let (hit_b, _) = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&inserted.share(), &hit_a.share()));
        assert!(Arc::ptr_eq(&hit_a.share(), &hit_b.share()));
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache_and_promotes() {
        let dir = temp_dir();
        let first = ResultCache::new(4, Some(dir.clone()));
        first.insert(7, b"payload");
        drop(first);
        let second = ResultCache::new(4, Some(dir.clone()));
        assert_eq!(raw_get(&second, 7), Some((b"payload".to_vec(), CacheTier::Disk)));
        // Promoted: the next lookup is a memory hit.
        assert_eq!(raw_get(&second, 7), Some((b"payload".to_vec(), CacheTier::Memory)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_disk_entry_is_a_miss_and_removed() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.insert(7, b"payload");
        // Evict from memory so the next get must go to disk.
        cache.insert(8, b"other");
        fs::write(dir.join(format!("{}.bin", key_hex(7))), b"tampered").unwrap();
        assert_eq!(raw_get(&cache, 7), None);
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 1);
        assert!(!dir.join(format!("{}.json", key_hex(7))).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_disk_payload_is_a_miss_and_removed() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.insert(7, b"payload");
        cache.insert(8, b"other");
        // Same length claim in the sidecar, shorter file on disk.
        fs::write(dir.join(format!("{}.bin", key_hex(7))), b"pay").unwrap();
        assert_eq!(raw_get(&cache, 7), None);
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_version_entries_are_never_served() {
        let dir = temp_dir();
        let old = ResultCache::with_version(1, Some(dir.clone()), "v-old".to_owned());
        old.insert(7, b"stale");
        drop(old);
        let new = ResultCache::with_version(1, Some(dir.clone()), "v-new".to_owned());
        assert_eq!(raw_get(&new, 7), None);
        assert_eq!(new.stats.corrupt.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cap_evicts_oldest_first_past_the_cap() {
        let dir = temp_dir();
        // Cap fits two 16-byte payloads; the third insert evicts the
        // oldest. Memory tier is 1 entry so lookups must go to disk.
        let cache = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(40));
        cache.insert(1, &[1u8; 16]);
        cache.insert(2, &[2u8; 16]);
        cache.insert(3, &[3u8; 16]);
        assert_eq!(cache.stats.evicted.load(Ordering::Relaxed), 1);
        assert_eq!(raw_get(&cache, 1), None, "oldest entry was evicted");
        assert_eq!(cache.get(3).map(|(_, tier)| tier), Some(CacheTier::Memory));
        assert_eq!(raw_get(&cache, 2), Some(([2u8; 16].to_vec(), CacheTier::Disk)));
        // Surviving entries still verify after eviction ran.
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_newest_entry_is_kept_and_restarts_resume_the_sequence() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(40));
        cache.insert(1, &[1u8; 16]);
        cache.insert(2, &[2u8; 16]);
        // A single payload over the cap evicts everything older but is
        // itself retained: the cap bounds growth, it never makes the
        // cache refuse the result that was just computed.
        cache.insert(9, &[9u8; 100]);
        assert_eq!(cache.stats.evicted.load(Ordering::Relaxed), 2);
        drop(cache);

        // A fresh cache resumes the insertion sequence past the
        // surviving entry, so the pre-restart entry goes first.
        let fresh = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(40));
        assert_eq!(raw_get(&fresh, 9), Some(([9u8; 100].to_vec(), CacheTier::Disk)));
        fresh.insert(10, &[10u8; 16]);
        assert_eq!(fresh.get(10).map(|(_, tier)| tier), Some(CacheTier::Memory));
        // 9 was evicted on disk and 10 displaced it from the 1-entry
        // memory tier, so it is gone entirely.
        assert_eq!(raw_get(&fresh, 9), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResultCache::new(2, None);
        cache.insert(1, b"a");
        cache.insert(1, b"b");
        assert_eq!(raw_get(&cache, 1), Some((b"b".to_vec(), CacheTier::Memory)));
    }
}
