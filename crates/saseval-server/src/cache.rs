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
//! The disk tier is an append-only log of *raw* payload bytes (framing
//! is a memory-tier concern) split into numbered segment files, with an
//! in-memory index in front of it:
//!
//! ```text
//! <dir>/00000000.seg   record record record …
//! <dir>/00000001.seg   record record …
//!
//! record = magic (8) | key (8) | payload len (8) | payload checksum (8)
//!          | version hash (8) | payload bytes
//! ```
//!
//! The checksum is `record_checksum`, a word-at-a-time FNV-style hash
//! that an insert computes before it takes the disk lock. The version
//! hash is the fnv1a64 of the code-version fingerprint with a
//! record-format tag folded in, so records of an earlier checksum read
//! as another version's.
//!
//! An insert is one vectored write of header plus payload to the segment
//! this process appends to; the index (`key → segment, offset, length`)
//! is updated only after the write returns. A process never appends to
//! a segment it did not create: it creates its first segment on its
//! first insert (`create_new`, skipping numbers another process took),
//! so opening a cache creates nothing.
//!
//! Opening a cache builds the index by scanning every segment's record
//! headers in segment order, seeking past payloads; the newest record
//! of a key written under this code version wins, and records of other
//! versions are never indexed. A segment's scan stops at its first
//! short or torn record (a header without the magic, or a payload
//! running past the end of the file), so a crash mid-append loses at
//! most the record being written and never an earlier one. After the
//! scan, every segment that holds complete records but no indexed one
//! is deleted, except the newest and every segment another cache is
//! still appending to.
//!
//! On Unix a cache holds an exclusive advisory lock ([`File::try_lock`])
//! on the segment it appends to from the moment it creates it, and
//! drops it when the segment rolls over or the cache closes (a crash
//! drops it too). Opening and eviction delete only segments whose lock
//! they can take, so several caches, in one process or many, may share
//! a directory without deleting a segment under a live writer.
//!
//! A lookup that misses the index costs no syscall. A hit is two
//! positioned reads on the segment's kept-open handle: the header, then
//! the payload straight into its place in the allocation that becomes
//! the framed entry. The header must carry the looked-up key, the
//! indexed length and this cache's version hash, and the payload its
//! checksum. Any mismatch is treated as a miss and drops the index
//! entry (counted under [`CacheStats::corrupt`]), so a corrupted store
//! degrades to recomputation instead of serving bad bytes. Opening a
//! cache deletes the files of the earlier file-per-entry layout
//! (`<key>.bin`, `<key>.json` and their `.tmp` siblings), which nothing
//! reads any more; every other file is left alone.
//!
//! With [`ResultCache::with_disk_cap`], the disk tier bounds its payload
//! bytes: the segment being appended to rolls over once it holds a
//! quarter of the cap, and after each insert whole segments are deleted
//! oldest-first while the total exceeds the cap. A segment being
//! appended to, by this cache or another, is never deleted, so the
//! newest entry is always kept and a single payload larger than the cap
//! still caches; the cap is a bound on steady-state growth, not a hard
//! invariant.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ffi::OsStr;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, IoSlice, Read, Write};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use saseval_types::hash::{fnv1a64, fnv1a64_extend, FNV_OFFSET_BASIS, FNV_PRIME};

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

    /// Frames raw canonical payload bytes: one allocation of exact
    /// size, one copy of the payload.
    pub fn frame(payload: &[u8]) -> Self {
        Self::fill(payload.len(), |dst| {
            dst.copy_from_slice(payload);
            Ok(())
        })
        .expect("copying into the frame cannot fail")
    }

    /// Allocates the framing around a zeroed `len`-byte payload slot and
    /// has `fill` write the payload into it: the payload reaches its
    /// final place in one pass, from memory or straight off disk.
    fn fill(len: usize, fill: impl FnOnce(&mut [u8]) -> io::Result<()>) -> io::Result<Self> {
        let (prefix, suffix) = (Self::PREFIX.len(), Self::SUFFIX.len());
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, prefix + len + suffix).collect();
        let buf = Arc::get_mut(&mut bytes).expect("a new allocation is unshared");
        buf[..prefix].copy_from_slice(Self::PREFIX);
        fill(&mut buf[prefix..prefix + len])?;
        buf[prefix + len..].copy_from_slice(Self::SUFFIX);
        Ok(FramedPayload { bytes })
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
    /// On-disk records rejected (length/hash/version mismatch) and
    /// dropped from the index.
    pub corrupt: AtomicU64,
    /// Index entries dropped by the byte-cap eviction.
    pub evicted: AtomicU64,
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
    disk: Option<Mutex<DiskTier>>,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

/// Locks `mutex`, recovering the data from a poisoned lock: every
/// structure behind the cache's locks is consistent between statements.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ResultCache {
    /// A cache holding up to `mem_capacity` payloads in memory, backed
    /// by the on-disk store at `disk` when given. Opening reads the
    /// store's segments; the directory and the first segment are
    /// created lazily on first insert.
    pub fn new(mem_capacity: usize, disk: Option<PathBuf>) -> Self {
        Self::with_version(mem_capacity, disk, code_version())
    }

    /// [`ResultCache::new`] under an explicit code-version fingerprint
    /// (tests use this to prove version isolation).
    // The owned `String` is the long-standing public signature; the
    // cache keeps only its hash.
    #[allow(clippy::needless_pass_by_value)]
    pub fn with_version(mem_capacity: usize, disk: Option<PathBuf>, version: String) -> Self {
        ResultCache {
            mem: Mutex::new(Lru { entries: VecDeque::new(), capacity: mem_capacity.max(1) }),
            disk: disk.map(|dir| Mutex::new(DiskTier::open(dir, record_version_hash(&version)))),
            stats: CacheStats::default(),
        }
    }

    /// Caps the disk tier at `cap` payload bytes (see the module docs
    /// for the eviction policy); `None` leaves it unbounded.
    pub fn with_disk_cap(mut self, cap: Option<u64>) -> Self {
        if let Some(disk) = self.disk.as_mut() {
            disk.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner).cap = cap;
        }
        self
    }

    /// Looks `key` up, coldest tier last. Memory hits are `Arc` clones
    /// of the framed entry; disk hits are verified against their index
    /// entry and promoted into memory (the promotion shares the same
    /// allocation).
    pub fn get(&self, key: u64) -> Option<(FramedPayload, CacheTier)> {
        if let Some(framed) = lock(&self.mem).get(key) {
            self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some((framed, CacheTier::Memory));
        }
        if let Some(framed) = self.disk.as_ref().and_then(|disk| self.disk_get(disk, key)) {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            lock(&self.mem).insert(key, framed.clone());
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
        lock(&self.mem).insert(key, framed.clone());
        if let Some(disk) = &self.disk {
            // Checksummed before the lock is taken, so other workers'
            // inserts and disk lookups never wait on the pass.
            let checksum = record_checksum(payload);
            let mut tier = lock(disk);
            if tier.append(key, payload, checksum).is_ok() {
                let evicted = tier.evict();
                self.stats.evicted.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        framed
    }

    fn disk_get(&self, disk: &Mutex<DiskTier>, key: u64) -> Option<FramedPayload> {
        // The read runs outside the lock: the segment handle is shared,
        // and a positioned read needs no cursor.
        let (slot, file, version_hash) = {
            let tier = lock(disk);
            let slot = *tier.index.get(&key)?;
            (slot, Arc::clone(&tier.segments.get(&slot.segment)?.file), tier.version_hash)
        };
        let verified = read_record(&file, slot, key, version_hash);
        if verified.is_none() {
            // Corrupt record: drop it from the index so the slot can be
            // refilled by a fresh run (unless an insert already replaced
            // it).
            self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
            let mut tier = lock(disk);
            if tier.index.get(&key) == Some(&slot) {
                tier.index.remove(&key);
            }
        }
        verified
    }
}

/// Leading bytes of every record.
const RECORD_MAGIC: [u8; 8] = *b"SSVCACH1";

/// Names the record format — the checksum [`record_checksum`] computes —
/// inside the version hash records carry. Records written under the
/// earlier FNV-1a payload hash lack it, so they read as another
/// version's: never indexed, and their segments are swept once dead.
const RECORD_FORMAT: &[u8] = b"\0checksum=fnv-word64-xs32";

/// Record header length: magic, key, payload length, payload checksum,
/// version hash.
const HEADER_LEN: usize = 40;

/// The version hash of records written by this build under the code
/// version `version`: its fnv1a64 with [`RECORD_FORMAT`] folded in.
fn record_version_hash(version: &str) -> u64 {
    fnv1a64_extend(fnv1a64(version.as_bytes()), RECORD_FORMAT)
}

/// The payload checksum a record's header carries: an FNV-style pass
/// over little-endian 64-bit words (the last one zero-padded), seeded
/// with the payload length, each step a multiply by the FNV prime and a
/// 32-bit xorshift.
///
/// Each step is a bijection of the running state for a fixed word and of
/// the word for a fixed state, so any change confined to one word, a
/// single flipped bit among them, always changes the result; so does a
/// change of length alone. The xorshift carries the top bit's change
/// down into the low half: without it, a flip of bit 63 only ever
/// changes bit 63 of the product, and two such flips in different
/// words cancel.
fn record_checksum(payload: &[u8]) -> u64 {
    fn step(hash: u64, word: u64) -> u64 {
        let hash = (hash ^ word).wrapping_mul(FNV_PRIME);
        hash ^ (hash >> 32)
    }
    let mut words = payload.chunks_exact(8);
    let mut hash = FNV_OFFSET_BASIS ^ payload.len() as u64;
    for word in &mut words {
        hash = step(hash, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash = step(hash, u64::from_le_bytes(last));
    }
    hash
}

/// File extension of segment files.
const SEGMENT_EXT: &str = "seg";

/// The fixed header in front of every record's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordHeader {
    key: u64,
    len: u64,
    checksum: u64,
    version_hash: u64,
}

impl RecordHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[..8].copy_from_slice(&RECORD_MAGIC);
        for (i, field) in [self.key, self.len, self.checksum, self.version_hash].iter().enumerate()
        {
            bytes[8 + 8 * i..16 + 8 * i].copy_from_slice(&field.to_le_bytes());
        }
        bytes
    }

    /// The header in `bytes`, or `None` when the magic is missing (a
    /// torn or foreign tail).
    fn decode(bytes: &[u8; HEADER_LEN]) -> Option<Self> {
        if bytes[..8] != RECORD_MAGIC {
            return None;
        }
        let field = |i: usize| {
            u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().expect("8-byte field"))
        };
        Some(RecordHeader {
            key: field(0),
            len: field(1),
            checksum: field(2),
            version_hash: field(3),
        })
    }
}

/// Where the newest record of a key lives: 16 bytes, no heap
/// allocation of its own. The checksum and version hash stay in
/// the record header, which a lookup's one read fetches with the
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Offset of the record (its header) in its segment.
    offset: u64,
    /// Payload length.
    len: u32,
    /// Segment number.
    segment: u32,
}

/// One segment file: a handle kept open for positioned reads (and, for
/// the segment this process appends to, for appends).
#[derive(Debug)]
struct Segment {
    file: Arc<File>,
    /// Payload bytes of the records indexed from or appended to it.
    payload_bytes: u64,
}

/// The disk tier: segment files plus the index over them.
#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
    /// The version hash ([`record_version_hash`]) records are written
    /// under and must carry to be served.
    version_hash: u64,
    cap: Option<u64>,
    /// A B-tree rather than a hash table: it grows a node at a time, so
    /// its resident size tracks the entry count (about 0.8 MB at 16 k
    /// entries) instead of doubling a table and briefly holding both.
    index: BTreeMap<u64, Slot>,
    segments: BTreeMap<u32, Segment>,
    /// The segment this process appends to and its length; `None`
    /// before the first insert, after a roll and after a failed write.
    active: Option<(u32, u64)>,
    /// The number the next created segment tries first.
    next_segment: u32,
}

impl DiskTier {
    /// Opens the store at `dir`: one `read_dir` (a missing directory is
    /// an empty store) and a header scan of every segment. Creates
    /// nothing.
    ///
    /// A segment whose complete records are all superseded or written
    /// under another code version is dead: nothing will ever be served
    /// from it, so it is deleted. The newest segment, segments without a
    /// complete record and segments another cache holds locked are kept,
    /// because their writer may still append to them.
    fn open(dir: PathBuf, version_hash: u64) -> Self {
        let mut tier = DiskTier {
            dir,
            version_hash,
            cap: None,
            index: BTreeMap::new(),
            segments: BTreeMap::new(),
            active: None,
            next_segment: 0,
        };
        let mut numbers = Vec::new();
        if let Ok(entries) = fs::read_dir(&tier.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if let Some(number) = segment_number(&path) {
                    numbers.push(number);
                } else if is_legacy_entry(&entry.file_name()) {
                    // Nothing under this layout reads it: only its disk
                    // space is left to reclaim.
                    let _ = fs::remove_file(&path);
                }
            }
        }
        numbers.sort_unstable();
        let mut with_records = Vec::new();
        for &number in &numbers {
            tier.next_segment = number.saturating_add(1);
            if let Ok(file) = File::open(tier.segment_path(number)) {
                let (records, payload_bytes) = tier.scan(number, &file);
                tier.segments.insert(number, Segment { file: Arc::new(file), payload_bytes });
                if records > 0 {
                    with_records.push(number);
                }
            }
        }
        let live: BTreeSet<u32> = tier.index.values().map(|slot| slot.segment).collect();
        for number in with_records {
            if !live.contains(&number)
                && Some(&number) != numbers.last()
                && unlocked(&tier.segments[&number].file)
            {
                tier.segments.remove(&number);
                let _ = fs::remove_file(tier.segment_path(number));
            }
        }
        tier
    }

    /// Stops appending to the active segment and releases its lock, so
    /// other caches may delete it once it is dead or over the cap.
    fn retire_active(&mut self) {
        if let Some((number, _)) = self.active.take() {
            unlock_segment(&self.segments[&number].file);
        }
    }

    fn segment_path(&self, number: u32) -> PathBuf {
        self.dir.join(format!("{number:08}.{SEGMENT_EXT}"))
    }

    /// Indexes the records of segment `number` written under this code
    /// version, stopping at the first short or torn one (or a read
    /// error). Returns the number of complete records and their payload
    /// bytes, foreign-version ones included: they occupy the disk the
    /// cap bounds.
    fn scan(&mut self, number: u32, file: &File) -> (u64, u64) {
        let Ok(metadata) = file.metadata() else { return (0, 0) };
        let file_len = metadata.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN];
        let (mut offset, mut records, mut payload_bytes) = (0u64, 0u64, 0u64);
        while offset + HEADER_LEN as u64 <= file_len {
            if reader.read_exact(&mut header).is_err() {
                break;
            }
            let Some(record) = RecordHeader::decode(&header) else { break };
            let Ok(len) = u32::try_from(record.len) else { break };
            let payload_at = offset + HEADER_LEN as u64;
            if payload_at + u64::from(len) > file_len
                || reader.seek_relative(i64::from(len)).is_err()
            {
                break;
            }
            if record.version_hash == self.version_hash {
                self.index.insert(record.key, Slot { offset, len, segment: number });
            }
            records += 1;
            payload_bytes += u64::from(len);
            offset = payload_at + u64::from(len);
        }
        (records, payload_bytes)
    }

    /// Appends one record, whose payload's [`record_checksum`] is
    /// `checksum`, and indexes it once the write has returned.
    fn append(&mut self, key: u64, payload: &[u8], checksum: u64) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload over 4 GiB"))?;
        if let (Some(cap), Some((number, _))) = (self.cap, self.active) {
            if self.segments[&number].payload_bytes >= cap / 4 {
                self.retire_active();
            }
        }
        let (number, end) = match self.active {
            Some(active) => active,
            None => self.create_segment()?,
        };
        let header =
            RecordHeader { key, len: u64::from(len), checksum, version_hash: self.version_hash };
        let segment = self.segments.get_mut(&number).expect("the active segment is open");
        if let Err(e) = write_record(&segment.file, &header.encode(), payload) {
            // The segment may now end in a torn record; later appends
            // behind it would be unreachable to the next open's scan.
            self.retire_active();
            return Err(e);
        }
        segment.payload_bytes += u64::from(len);
        self.active = Some((number, end + HEADER_LEN as u64 + u64::from(len)));
        self.index.insert(key, Slot { offset: end, len, segment: number });
        Ok(())
    }

    /// Creates this cache's next segment, skipping numbers that are
    /// already taken, locks it and makes it the active one. Nothing is
    /// written to it before the lock is held, and opening never deletes
    /// a segment without a complete record, so no other cache can delete
    /// it in between.
    fn create_segment(&mut self) -> io::Result<(u32, u64)> {
        fs::create_dir_all(&self.dir)?;
        loop {
            let number = self.next_segment;
            self.next_segment = number
                .checked_add(1)
                .ok_or_else(|| io::Error::other("segment numbers exhausted"))?;
            let created = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(self.segment_path(number));
            match created {
                Ok(file) => {
                    lock_segment(&file);
                    self.segments
                        .insert(number, Segment { file: Arc::new(file), payload_bytes: 0 });
                    self.active = Some((number, 0));
                    return Ok((number, 0));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Enforces the byte cap: deletes whole segments oldest-first while
    /// the payload bytes exceed it, skipping the active segment and every
    /// segment another cache holds locked. Returns the number of index
    /// entries dropped.
    fn evict(&mut self) -> u64 {
        let Some(cap) = self.cap else { return 0 };
        let active = self.active.map(|(number, _)| number);
        let mut total: u64 = self.segments.values().map(|segment| segment.payload_bytes).sum();
        let mut dropped = 0;
        let mut after = None;
        while total > cap {
            let next = match after {
                None => self.segments.iter().next(),
                Some(after) => {
                    self.segments.range((Bound::Excluded(after), Bound::Unbounded)).next()
                }
            };
            let Some((&oldest, segment)) = next else { break };
            after = Some(oldest);
            if Some(oldest) == active || !unlocked(&segment.file) {
                continue;
            }
            let segment = self.segments.remove(&oldest).expect("the key was just found");
            total -= segment.payload_bytes;
            let before = self.index.len();
            self.index.retain(|_, slot| slot.segment != oldest);
            dropped += (before - self.index.len()) as u64;
            let _ = fs::remove_file(self.segment_path(oldest));
        }
        dropped
    }
}

/// Locks the segment `file` for the cache about to append to it. The
/// locks are Unix `flock`s, which are advisory: other caches still read
/// the segment. Elsewhere a lock would block their reads too, so no
/// segment is locked there and only the newest-segment rule protects a
/// writer. Without lock support the segment stays unlocked likewise.
fn lock_segment(file: &File) {
    if cfg!(unix) {
        let _ = file.try_lock();
    }
}

/// Releases [`lock_segment`]'s lock.
fn unlock_segment(file: &File) {
    if cfg!(unix) {
        let _ = file.unlock();
    }
}

/// Whether no other cache holds the segment `file` locked. Takes the
/// lock and keeps it, so the caller must be about to close the handle.
/// A failure to lock reads as held, which keeps the segment.
fn unlocked(file: &File) -> bool {
    !cfg!(unix) || file.try_lock().is_ok()
}

/// Writes `header` then `payload` with one vectored write, finishing
/// the rare short write with plain ones. No copy of the payload is made.
fn write_record(mut file: &File, header: &[u8], payload: &[u8]) -> io::Result<()> {
    let written = file.write_vectored(&[IoSlice::new(header), IoSlice::new(payload)])?;
    file.write_all(header.get(written..).unwrap_or_default())?;
    file.write_all(&payload[written.saturating_sub(header.len())..])
}

/// The segment number of `path` when it names a segment file.
fn segment_number(path: &Path) -> Option<u32> {
    if path.extension()? != SEGMENT_EXT {
        return None;
    }
    path.file_stem()?.to_str()?.parse().ok()
}

/// Whether `name` is a file of the earlier file-per-entry layout:
/// `<16-hex-key>.bin`, `<16-hex-key>.json`, or the `.tmp` sibling either
/// was written through.
fn is_legacy_entry(name: &OsStr) -> bool {
    let Some((key, ext)) = name.to_str().and_then(|name| name.split_at_checked(16)) else {
        return false;
    };
    key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        && matches!(ext, ".bin" | ".json" | ".bin.tmp" | ".json.tmp")
}

/// Reads the record `slot` points at and verifies it: the header's
/// magic, key, length and version hash first, then the payload, read
/// straight into its place in the framed entry, against the header's
/// checksum.
fn read_record(file: &File, slot: Slot, key: u64, version_hash: u64) -> Option<FramedPayload> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_at(file, &mut header, slot.offset).ok()?;
    let header = RecordHeader::decode(&header)?;
    if header.key != key || header.len != u64::from(slot.len) || header.version_hash != version_hash
    {
        return None;
    }
    let payload_at = slot.offset + HEADER_LEN as u64;
    let framed =
        FramedPayload::fill(slot.len as usize, |dst| read_exact_at(file, dst, payload_at)).ok()?;
    (record_checksum(framed.payload()) == header.checksum).then_some(framed)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
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

    /// The segment files in `dir`, oldest first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .map(|entries| entries.flatten().map(|entry| entry.path()).collect())
            .unwrap_or_default();
        files.retain(|path| segment_number(path).is_some());
        files.sort();
        files
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
        // Record 7 opens the segment; overwrite its payload.
        let [segment] = &segment_files(&dir)[..] else { panic!("one segment expected") };
        let mut bytes = fs::read(segment).unwrap();
        bytes[HEADER_LEN..HEADER_LEN + 7].copy_from_slice(b"tamperd");
        fs::write(segment, bytes).unwrap();
        assert_eq!(raw_get(&cache, 7), None);
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 1);
        // Removed from the index: the next lookup is a plain miss.
        assert_eq!(raw_get(&cache, 7), None);
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_disk_payload_is_a_miss_and_removed() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.insert(7, b"payload");
        cache.insert(8, b"other");
        // Same length claim in the index, shorter file on disk.
        let [segment] = &segment_files(&dir)[..] else { panic!("one segment expected") };
        OpenOptions::new()
            .write(true)
            .open(segment)
            .unwrap()
            .set_len(HEADER_LEN as u64 + 3)
            .unwrap();
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
        // Never indexed, so the lookup is a plain miss.
        assert_eq!(new.stats.corrupt.load(Ordering::Relaxed), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_newer_foreign_record_does_not_hide_an_older_valid_one() {
        let dir = temp_dir();
        let current = ResultCache::with_version(1, Some(dir.clone()), "v-new".to_owned());
        current.insert(7, b"valid");
        drop(current);
        let other = ResultCache::with_version(1, Some(dir.clone()), "v-other".to_owned());
        other.insert(7, b"foreign");
        drop(other);
        let reopened = ResultCache::with_version(1, Some(dir.clone()), "v-new".to_owned());
        assert_eq!(raw_get(&reopened, 7), Some((b"valid".to_vec(), CacheTier::Disk)));
        assert_eq!(reopened.stats.corrupt.load(Ordering::Relaxed), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_under_a_new_version_deletes_the_old_versions_segments() {
        let dir = temp_dir();
        for key in 1..3 {
            let old = ResultCache::with_version(1, Some(dir.clone()), "v-old".to_owned());
            old.insert(key, b"old");
        }
        // The newest segment is kept: its writer may still be appending.
        let new = ResultCache::with_version(1, Some(dir.clone()), "v-new".to_owned());
        assert_eq!(segment_files(&dir).len(), 1, "the older v-old segment is deleted");
        new.insert(3, b"new");
        drop(new);
        let new = ResultCache::with_version(1, Some(dir.clone()), "v-new".to_owned());
        let names: Vec<_> =
            segment_files(&dir).iter().map(|p| p.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["00000002.seg"], "no v-old segment is left");
        assert_eq!(raw_get(&new, 3), Some((b"new".to_vec(), CacheTier::Disk)));
        // The deleted segments' handles are gone with them.
        assert_eq!(lock(new.disk.as_ref().unwrap()).segments.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_deletes_fully_superseded_segments_only() {
        let dir = temp_dir();
        for (key, payload) in [(1, b"a1"), (2, b"b1"), (1, b"a2"), (2, b"b2")] {
            ResultCache::new(1, Some(dir.clone())).insert(key, payload);
        }
        let cache = ResultCache::new(1, Some(dir.clone()));
        let names: Vec<_> =
            segment_files(&dir).iter().map(|p| p.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["00000002.seg", "00000003.seg"]);
        assert_eq!(raw_get(&cache, 1), Some((b"a2".to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&cache, 2), Some((b"b2".to_vec(), CacheTier::Disk)));
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

        // A fresh cache appends to a new segment numbered past the
        // surviving one, so the pre-restart entry goes first.
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
    fn torn_tail_loses_only_the_last_record() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.insert(1, b"first");
        cache.insert(2, b"second");
        cache.insert(3, b"third");
        drop(cache);
        // A crash mid-append: the last record is cut short. Its payload
        // now runs past the end of the file, so the scan stops there.
        let [segment] = &segment_files(&dir)[..] else { panic!("one segment expected") };
        let file = OpenOptions::new().append(true).open(segment).unwrap();
        file.set_len(file.metadata().unwrap().len() - 2).unwrap();
        let reopened = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(raw_get(&reopened, 3), None);
        assert_eq!(reopened.stats.corrupt.load(Ordering::Relaxed), 0, "never indexed");
        drop(reopened);

        // Garbage after the cut makes the torn record's length fit
        // again; the hash check rejects it on lookup.
        (&file).write_all(b"\0garbage").unwrap();
        let torn_len = file.metadata().unwrap().len();
        drop(file);
        let reopened = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(raw_get(&reopened, 1), Some((b"first".to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&reopened, 2), Some((b"second".to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&reopened, 3), None);
        assert_eq!(reopened.stats.corrupt.load(Ordering::Relaxed), 1);
        // Later inserts never land behind the torn record.
        reopened.insert(4, b"fourth");
        let segments = segment_files(&dir);
        assert_eq!(segments.len(), 2);
        assert_eq!(fs::metadata(&segments[0]).unwrap().len(), torn_len);
        drop(reopened);
        let again = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(raw_get(&again, 4), Some((b"fourth".to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&again, 2), Some((b"second".to_vec(), CacheTier::Disk)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_is_a_corrupt_miss() {
        let dir = temp_dir();
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.insert(7, b"payload");
        cache.insert(8, b"other");
        let [segment] = &segment_files(&dir)[..] else { panic!("one segment expected") };
        let mut bytes = fs::read(segment).unwrap();
        bytes[HEADER_LEN + 2] ^= 0x01;
        fs::write(segment, &bytes).unwrap();
        assert_eq!(raw_get(&cache, 7), None);
        assert_eq!(cache.stats.corrupt.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_creates_nothing_and_restarts_resume_the_numbering() {
        let dir = temp_dir();
        let idle = ResultCache::new(4, Some(dir.clone()));
        assert_eq!(raw_get(&idle, 1), None);
        assert!(!dir.exists(), "no directory before the first insert");
        idle.insert(1, b"one");
        drop(idle);
        for key in 2..4 {
            let cache = ResultCache::new(4, Some(dir.clone()));
            cache.insert(key, b"more");
        }
        // A process that only reads makes no segment.
        drop(ResultCache::new(4, Some(dir.clone())));
        let names: Vec<_> =
            segment_files(&dir).iter().map(|p| p.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["00000000.seg", "00000001.seg", "00000002.seg"]);
        // Opening deletes the files of the earlier file-per-entry layout
        // and leaves every other file alone.
        let old = [format!("{:016x}.bin", 9), format!("{:016x}.json.tmp", 9)];
        for name in &old {
            fs::write(dir.join(name), b"old").unwrap();
        }
        fs::write(dir.join("notes.bin"), b"kept").unwrap();
        let cache = ResultCache::new(4, Some(dir.clone()));
        assert!(old.iter().all(|name| !dir.join(name).exists()), "old layout files are gone");
        assert!(dir.join("notes.bin").exists());
        assert_eq!(raw_get(&cache, 9), None);
        assert_eq!(raw_get(&cache, 1), Some((b"one".to_vec(), CacheTier::Disk)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn opening_keeps_a_superseded_segment_another_cache_appends_to() {
        let dir = temp_dir();
        let a = ResultCache::new(1, Some(dir.clone()));
        a.insert(1, b"a1");
        let b = ResultCache::new(1, Some(dir.clone()));
        b.insert(1, b"b1");
        // Segment 0 holds only a superseded record and is not the newest,
        // but A still appends to it.
        let third = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(segment_files(&dir).len(), 2, "A's segment is kept");
        a.insert(2, b"a2");
        let fourth = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(raw_get(&fourth, 2), Some((b"a2".to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&fourth, 1), Some((b"b1".to_vec(), CacheTier::Disk)));
        drop((a, b, third, fourth));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn eviction_skips_a_segment_another_cache_appends_to() {
        let dir = temp_dir();
        let a = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(400));
        a.insert(1, &[1u8; 10]);
        let b = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(400));
        for key in 2..6 {
            b.insert(key, &[key as u8; 100]);
        }
        assert!(b.stats.evicted.load(Ordering::Relaxed) > 0, "B evicted its own segments");
        assert!(dir.join("00000000.seg").exists(), "A's active segment is kept");
        a.insert(6, &[6u8; 10]);
        let reader = ResultCache::new(1, Some(dir.clone()));
        assert_eq!(raw_get(&reader, 6), Some(([6u8; 10].to_vec(), CacheTier::Disk)));
        assert_eq!(raw_get(&reader, 1), Some(([1u8; 10].to_vec(), CacheTier::Disk)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn a_rolled_over_segment_is_unlocked() {
        let dir = temp_dir();
        // A 40-byte cap rolls the segment over once it holds 10 bytes.
        let cache = ResultCache::new(1, Some(dir.clone())).with_disk_cap(Some(40));
        cache.insert(1, &[1u8; 16]);
        cache.insert(2, &[2u8; 16]);
        let [rolled, active] = &segment_files(&dir)[..] else { panic!("two segments expected") };
        assert!(File::open(rolled).unwrap().try_lock().is_ok(), "rolled segment is unlocked");
        assert!(File::open(active).unwrap().try_lock().is_err(), "active segment is locked");
        drop(cache);
        assert!(File::open(active).unwrap().try_lock().is_ok(), "closing drops the lock");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One step of the disk-tier model check.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, Vec<u8>),
        /// Drop and reopen the cache.
        Restart,
        /// Crash: cut this many bytes off the newest segment, append
        /// garbage when set, reopen.
        Truncate(u64, bool),
        /// Crash: flip a payload byte of the `n % count`-th intact
        /// record, reopen.
        Flip(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let insert = || {
            (0u64..5, prop::collection::vec(any::<u8>(), 0..24)).prop_map(|(k, v)| Op::Insert(k, v))
        };
        prop_oneof![
            insert(),
            insert(),
            Just(Op::Restart),
            (0u64..80, any::<bool>()).prop_map(|(n, garbage)| Op::Truncate(n, garbage)),
            (0usize..64).prop_map(Op::Flip),
        ]
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RecordState {
        Intact,
        /// A payload byte was flipped.
        Tampered,
        /// Cut by a truncation: the scan either stops at it or, when
        /// later bytes make its length fit, indexes it for the hash
        /// check to reject.
        Torn,
    }

    /// A record as the model knows it.
    struct ModelRecord {
        key: u64,
        bytes: Vec<u8>,
        end: u64,
        state: RecordState,
    }

    /// What a reopened cache may serve per key: the newest intact
    /// record's bytes, nothing if that record was tampered with, and
    /// behind a torn record either the older answer or nothing. (A torn
    /// record that passes the hash check holds exactly its inserted
    /// bytes, so those are allowed too.)
    fn reopened_view(
        segments: &[(Vec<ModelRecord>, u64, PathBuf)],
    ) -> HashMap<u64, Vec<Option<Vec<u8>>>> {
        let mut view: HashMap<u64, Vec<Option<Vec<u8>>>> = HashMap::new();
        for record in segments.iter().flat_map(|(records, ..)| records) {
            let allowed = match record.state {
                RecordState::Intact => vec![Some(record.bytes.clone())],
                RecordState::Tampered => vec![None],
                RecordState::Torn => {
                    let mut allowed = view.remove(&record.key).unwrap_or_else(|| vec![None]);
                    allowed.extend([None, Some(record.bytes.clone())]);
                    allowed
                }
            };
            view.insert(record.key, allowed);
        }
        view
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random inserts, restarts, torn tails and flipped bytes
        /// against a model of the log: every hit is the last bytes
        /// inserted for its key that survive on disk, nothing torn or
        /// tampered is ever served, and a reopen deletes only segments
        /// whose every record a later record of its key supersedes.
        #[test]
        fn disk_tier_matches_a_model_under_crashes(ops in prop::collection::vec(op(), 1..40)) {
            let dir = temp_dir();
            let open = || ResultCache::new(2, Some(dir.clone()));
            let mut cache = Some(open());
            // Per segment: its records, its file length and its path.
            let mut segments: Vec<(Vec<ModelRecord>, u64, PathBuf)> = Vec::new();
            let mut appending = false;
            let mut allowed: HashMap<u64, Vec<Option<Vec<u8>>>> = HashMap::new();
            for op in ops {
                if !matches!(op, Op::Insert(..)) {
                    // Every other step ends the process.
                    drop(cache.take());
                    appending = false;
                }
                match op {
                    Op::Insert(key, bytes) => {
                        cache.as_ref().unwrap().insert(key, &bytes);
                        if !appending {
                            let path = segment_files(&dir).pop().unwrap();
                            segments.push((Vec::new(), 0, path));
                            appending = true;
                        }
                        let (records, len, _) = segments.last_mut().unwrap();
                        *len += (HEADER_LEN + bytes.len()) as u64;
                        allowed.insert(key, vec![Some(bytes.clone())]);
                        let state = RecordState::Intact;
                        records.push(ModelRecord { key, bytes, end: *len, state });
                    }
                    Op::Restart => {}
                    Op::Truncate(cut, garbage) => {
                        if let (Some((records, len, _)), Some(path)) =
                            (segments.last_mut(), segment_files(&dir).last())
                        {
                            let file = OpenOptions::new().append(true).open(path).unwrap();
                            prop_assert_eq!(file.metadata().unwrap().len(), *len);
                            *len = len.saturating_sub(cut);
                            file.set_len(*len).unwrap();
                            records.retain(|r| r.end < *len + (HEADER_LEN + r.bytes.len()) as u64);
                            for record in records.iter_mut().filter(|r| r.end > *len) {
                                record.state = RecordState::Torn;
                            }
                            if garbage {
                                (&file).write_all(b"torn").unwrap();
                                *len += 4;
                            }
                        }
                    }
                    Op::Flip(n) => {
                        let files = segment_files(&dir);
                        let mut targets: Vec<(usize, &mut ModelRecord)> = segments
                            .iter_mut()
                            .enumerate()
                            .flat_map(|(i, (records, ..))| records.iter_mut().map(move |r| (i, r)))
                            .filter(|(_, r)| !r.bytes.is_empty() && r.state == RecordState::Intact)
                            .collect();
                        if !targets.is_empty() {
                            let count = targets.len();
                            let (segment, record) = &mut targets[n % count];
                            let mut bytes = fs::read(&files[*segment]).unwrap();
                            bytes[record.end as usize - 1] ^= 0x80;
                            fs::write(&files[*segment], bytes).unwrap();
                            record.state = RecordState::Tampered;
                        }
                    }
                }
                if cache.is_none() {
                    cache = Some(open());
                    let kept = segment_files(&dir);
                    let newest_kept = segments.last().is_none_or(|(_, _, path)| kept.contains(path));
                    prop_assert!(newest_kept, "the newest segment was deleted");
                    // A torn record may or may not be indexed: it needs
                    // no successor, and counts as one.
                    let mut later = HashSet::new();
                    for (records, _, path) in segments.iter().rev() {
                        let deleted = !kept.contains(path);
                        for record in records.iter().rev() {
                            prop_assert!(
                                !deleted
                                    || record.state == RecordState::Torn
                                    || later.contains(&record.key),
                                "deleted {path:?} held the newest record of key {}",
                                record.key
                            );
                            later.insert(record.key);
                        }
                    }
                    segments.retain(|(_, _, path)| kept.contains(path));
                    allowed = reopened_view(&segments);
                }
                let cache = cache.as_ref().unwrap();
                for key in 0..5 {
                    let got = raw_get(cache, key).map(|(bytes, _)| bytes);
                    let options = allowed.remove(&key).unwrap_or_else(|| vec![None]);
                    prop_assert!(options.contains(&got), "key {key}: {got:?} not in {options:?}");
                    // A lookup settles the answer until the next insert.
                    allowed.insert(key, vec![got]);
                }
            }
            drop(cache);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResultCache::new(2, None);
        cache.insert(1, b"a");
        cache.insert(1, b"b");
        assert_eq!(raw_get(&cache, 1), Some((b"b".to_vec(), CacheTier::Memory)));
    }
}
