//! The disk tier's record checksum never lets a damaged record through.
//!
//! Each record on disk is `magic | key | payload len | payload checksum |
//! version hash | payload`, eight bytes per header field, little-endian.
//! The tests write records through the cache, damage the segment file
//! in place, reopen the cache and look the key up. A damaged record must
//! be counted under `CacheStats::corrupt` and never served:
//!
//! - every single-bit flip of the payload or of its checksum;
//! - two flips of bit 63 in different payload words, and a swap of two
//!   words, which a word-wise FNV hash without its xorshift cannot see
//!   (a top-bit flip only ever changes the product's top bit);
//! - a truncation whose header claims the shorter length, which a hash
//!   that zero-pads its last word and ignores the length cannot see.
//!
//! Records written under the earlier FNV-1a payload hash carry the
//! plain code-version hash, without the record-format tag: they must
//! never be indexed, and their dead segments must be deleted.
//!
//! The properties keep proptest's default configuration, so the
//! `PROPTEST_CASES` environment variable raises their case count.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use saseval_server::cache::ResultCache;
use saseval_server::job::code_version;
use saseval_types::hash::fnv1a64;

/// Header length: five 8-byte fields.
const HEADER_LEN: usize = 40;
/// Offset of the payload-length field.
const LEN_AT: usize = 16;
/// Offset of the checksum field.
const CHECKSUM_AT: usize = 24;
/// The key every test record is stored under.
const KEY: u64 = 7;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let unique = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saseval-record-checksum-{}-{unique}", std::process::id()))
}

/// The segment files in `dir`, oldest first.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|entry| entry.path()).collect())
        .unwrap_or_default();
    files.retain(|path| path.extension().is_some_and(|ext| ext == "seg"));
    files.sort();
    files
}

/// A cache directory holding one record of `payload` under [`KEY`], and
/// that record's segment file.
fn one_record(payload: &[u8]) -> (PathBuf, PathBuf) {
    let dir = temp_dir();
    ResultCache::new(1, Some(dir.clone())).insert(KEY, payload);
    let [segment] = &segments(&dir)[..] else { panic!("one segment expected") };
    let segment = segment.clone();
    (dir, segment)
}

/// Looks [`KEY`] up in a freshly opened cache: the payload it serves and
/// the number of records it counted corrupt.
fn lookup(dir: &Path) -> (Option<Vec<u8>>, u64) {
    let cache = ResultCache::new(1, Some(dir.to_path_buf()));
    let served = cache.get(KEY).map(|(framed, _)| framed.payload().to_vec());
    (served, cache.stats.corrupt.load(Ordering::Relaxed))
}

/// Writes `record` as the segment's bytes and checks that the reopened
/// cache counts it corrupt and serves nothing.
fn assert_rejected(dir: &Path, segment: &Path, record: &[u8], what: &str) {
    fs::write(segment, record).unwrap();
    assert_eq!(lookup(dir), (None, 1), "{what}: served, or not counted corrupt");
}

fn flip(record: &mut [u8], bit: usize) {
    record[bit / 8] ^= 1 << (bit % 8);
}

/// Bit 63 of the payload's `word`-th little-endian 64-bit word, as a
/// bit index into the record.
fn top_bit(word: usize) -> usize {
    (HEADER_LEN + 8 * word + 7) * 8 + 7
}

proptest! {
    #[test]
    fn every_single_bit_flip_is_counted_corrupt(
        payload in prop::collection::vec(any::<u8>(), 1..40)
    ) {
        let (dir, segment) = one_record(&payload);
        prop_assert_eq!(lookup(&dir), (Some(payload.clone()), 0));
        let record = fs::read(&segment).unwrap();
        let checksum_bits = CHECKSUM_AT * 8..(CHECKSUM_AT + 8) * 8;
        let payload_bits = HEADER_LEN * 8..record.len() * 8;
        for bit in checksum_bits.chain(payload_bits) {
            let mut damaged = record.clone();
            flip(&mut damaged, bit);
            assert_rejected(&dir, &segment, &damaged, &format!("flip of record bit {bit}"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_top_bit_flips_in_different_words_are_counted_corrupt(
        payload in prop::collection::vec(any::<u8>(), 16..72)
    ) {
        let (dir, segment) = one_record(&payload);
        let record = fs::read(&segment).unwrap();
        let words = payload.len() / 8;
        for first in 0..words {
            for second in first + 1..words {
                let mut damaged = record.clone();
                flip(&mut damaged, top_bit(first));
                flip(&mut damaged, top_bit(second));
                let what = format!("top-bit flips in words {first} and {second}");
                assert_rejected(&dir, &segment, &damaged, &what);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `top_only` makes the swapped words differ in bit 63 alone, so the
    /// swap is two top-bit flips; otherwise they are arbitrary words.
    #[test]
    fn swapping_two_words_is_counted_corrupt(
        mut words in prop::collection::vec(any::<u64>(), 2..9),
        pick in (0usize..64, 0usize..64),
        top_only in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let first = pick.0 % words.len();
        let second = (first + 1 + pick.1 % (words.len() - 1)) % words.len();
        if top_only {
            words[second] = words[first] ^ (1 << 63);
        }
        if words[first] == words[second] {
            // Swapping equal words changes nothing.
            return Ok(());
        }
        let mut payload: Vec<u8> = words.iter().flat_map(|word| word.to_le_bytes()).collect();
        payload.extend_from_slice(&tail);
        let (dir, segment) = one_record(&payload);
        let mut damaged = fs::read(&segment).unwrap();
        let (a, b) = (HEADER_LEN + 8 * first, HEADER_LEN + 8 * second);
        for i in 0..8 {
            damaged.swap(a + i, b + i);
        }
        assert_rejected(&dir, &segment, &damaged, &format!("swap of words {first} and {second}"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Cuts trailing zero bytes off the payload and rewrites the header's
/// length to match, so the scan indexes the shorter record and only the
/// checksum is left to tell.
#[test]
fn a_truncation_with_a_matching_header_is_counted_corrupt() {
    for len in 1..=24 {
        let mut payload = vec![0u8; len];
        payload[0] = b'{';
        let (dir, segment) = one_record(&payload);
        let record = fs::read(&segment).unwrap();
        for kept in 1..len {
            let mut damaged = record[..HEADER_LEN + kept].to_vec();
            damaged[LEN_AT..LEN_AT + 8].copy_from_slice(&(kept as u64).to_le_bytes());
            let what = format!("{len}-byte payload cut to {kept}");
            assert_rejected(&dir, &segment, &damaged, &what);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A record as the earlier format wrote it: the payload's fnv1a64 as its
/// hash, the code version's plain fnv1a64 as its version.
fn old_format_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut record = b"SSVCACH1".to_vec();
    for field in [key, payload.len() as u64, fnv1a64(payload), fnv1a64(code_version().as_bytes())] {
        record.extend_from_slice(&field.to_le_bytes());
    }
    record.extend_from_slice(payload);
    record
}

#[test]
fn records_under_the_old_fnv1a_header_are_never_served_and_swept() {
    let dir = temp_dir();
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("00000000.seg"), old_format_record(KEY, b"{\"old\":0}")).unwrap();
    fs::write(dir.join("00000001.seg"), old_format_record(KEY, b"{\"old\":1}")).unwrap();
    // Foreign records are never indexed, so the lookup is a plain miss.
    assert_eq!(lookup(&dir), (None, 0));
    let names = |dir: &Path| -> Vec<String> {
        segments(dir).iter().map(|p| p.file_name().unwrap().to_string_lossy().into()).collect()
    };
    // The older dead segment is deleted; the newest is spared, since its
    // writer might still append to it.
    assert_eq!(names(&dir), ["00000001.seg"]);
    let cache = ResultCache::new(1, Some(dir.clone()));
    cache.insert(KEY, b"{\"new\":2}");
    drop(cache);
    assert_eq!(lookup(&dir), (Some(b"{\"new\":2}".to_vec()), 0));
    assert_eq!(names(&dir), ["00000002.seg"], "no old-format segment is left");
    fs::remove_dir_all(&dir).unwrap();
}
