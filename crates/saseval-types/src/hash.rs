//! Content addressing shared across the workspace: FNV-1a 64-bit.
//!
//! One hash, two users with the same contract:
//!
//! * `saseval-fuzz::corpus` addresses stored fuzz inputs by
//!   [`content_hash`] so re-adding a known input is a no-op and two
//!   corpora built from the same findings are file-identical;
//! * `saseval-server` keys its result cache by [`fnv1a64`] over the
//!   canonicalized job (config + seed + code-version fingerprint) so a
//!   repeat request resolves to the same key on any server instance.
//!
//! FNV-1a is chosen over a cryptographic hash because both users are
//! local evidence/cache stores, not integrity boundaries, and FNV needs
//! no dependency. [`fnv1a64_extend`] chains additional byte runs onto an
//! existing digest — `fnv1a64_extend(fnv1a64(a), b)` equals
//! `fnv1a64(a ++ b)` — which lets key composition hash parts without
//! concatenating buffers.

/// Offset basis of 64-bit FNV-1a.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Prime of 64-bit FNV-1a.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a digest over `bytes`. Chaining is concatenation:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64([a, b].concat())`.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The 16-hex-digit content address of `bytes` — the file-stem form used
/// by corpus entries and on-disk cache records.
pub fn content_hash(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// FNV-1a 64-bit hash of a value's canonical JSON serialization.
///
/// The vendored `serde_json` serializes struct fields in declaration
/// order and map keys in `BTreeMap` order, so equal values always hash
/// equal — the property the trace-graph analyzer relies on to give
/// every artifact node a stable content address for incremental
/// re-analysis and cache keying.
pub fn stable_hash<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a64(&serde_json::to_vec(value).expect("hashable values always serialize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_hashes_to_offset_basis() {
        assert_eq!(fnv1a64(b""), FNV_OFFSET_BASIS);
    }

    #[test]
    fn known_vector_and_content_sensitivity() {
        // Published FNV-1a test vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(content_hash(b"a"), format!("{:016x}", fnv1a64(b"a")));
    }

    #[test]
    fn extend_is_concatenation() {
        let whole = fnv1a64(b"campaign-key");
        let chained = fnv1a64_extend(fnv1a64(b"campaign"), b"-key");
        assert_eq!(whole, chained);
        assert_eq!(fnv1a64_extend(FNV_OFFSET_BASIS, b"xyz"), fnv1a64(b"xyz"));
    }

    #[test]
    fn stable_hash_matches_json_hash_and_separates_values() {
        let hash = stable_hash(&("SG01", 7u32));
        assert_eq!(hash, fnv1a64(br#"["SG01",7]"#));
        assert_ne!(stable_hash(&("SG01", 7u32)), stable_hash(&("SG01", 8u32)));
        // Repeatable: the canonical serialization never drifts.
        assert_eq!(hash, stable_hash(&("SG01", 7u32)));
    }
}
