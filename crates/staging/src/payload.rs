//! Payloads: real bytes for correctness tests, virtual sizes for scale runs.
//!
//! The paper moves up to 640 GB per run through staging; a laptop reproduction
//! cannot (and need not) hold that. [`Payload`] therefore has two forms:
//!
//! * [`Payload::Inline`] — actual bytes, used by the threaded examples and all
//!   consistency tests, where we verify *content* (digests) across recovery;
//! * [`Payload::Virtual`] — a size and a precomputed digest, used by the
//!   discrete-event scalability runs, where only byte counts and digests flow
//!   through the system.
//!
//! Both forms carry a 64-bit FNV-1a digest so the crash-consistency layer can
//! assert replay equivalence ("the recovering consumer observed exactly the
//! bytes the original execution observed") uniformly.
//!
//! An inline payload's digest is computed once, from its own bytes, and then
//! travels with them through every clone: [`Payload::inline`] hashes at
//! construction, so the server's put, get, replay and journal-encode paths
//! read the stored value instead of re-hashing each block. A payload decoded
//! from a journal record is hashed from its bytes the first time its digest
//! is asked for; the digest written in the record is never trusted, so a
//! corruption the frame CRC misses still fails replay verification.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit hash (one implementation, shared with `logstore`).
pub use logstore::checksum::fnv1a;

/// Combine a digest with additional words (order-sensitive); used to derive
/// deterministic content digests for virtual payloads.
pub fn fnv1a_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for i in 0..8 {
            h ^= (w >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The bytes of an inline payload together with their memoized FNV-1a
/// digest. The fields are private: a digest can only ever come from hashing
/// these bytes, so no caller can pair bytes with a wrong digest.
pub struct InlineBytes {
    bytes: Bytes,
    /// The digest, or [`UNHASHED`] until it is first computed. The value is
    /// a pure function of the immutable bytes, so a relaxed load that sees
    /// it is always right, and a race at worst hashes twice.
    digest: AtomicU64,
}

/// Marks a digest not computed yet. A payload whose bytes really hash to
/// this value is simply re-hashed on every ask: correct, just not memoized.
const UNHASHED: u64 = 0;

impl InlineBytes {
    /// Wrap bytes and hash them now.
    fn hashed(bytes: Bytes) -> Self {
        let digest = AtomicU64::new(fnv1a(&bytes));
        InlineBytes { bytes, digest }
    }

    /// Wrap bytes whose digest is computed on first use.
    pub(crate) fn unhashed(bytes: Bytes) -> Self {
        InlineBytes { bytes, digest: AtomicU64::new(UNHASHED) }
    }

    /// FNV-1a of the bytes, computed on first ask and then memoized.
    fn digest(&self) -> u64 {
        match self.digest.load(Ordering::Relaxed) {
            UNHASHED => {
                let d = fnv1a(&self.bytes);
                self.digest.store(d, Ordering::Relaxed);
                d
            }
            d => d,
        }
    }
}

impl Clone for InlineBytes {
    /// A clone shares the bytes and carries the digest if it is known.
    fn clone(&self) -> Self {
        let digest = AtomicU64::new(self.digest.load(Ordering::Relaxed));
        InlineBytes { bytes: self.bytes.clone(), digest }
    }
}

impl PartialEq for InlineBytes {
    /// Equal bytes mean equal digests, so only the bytes are compared.
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for InlineBytes {}

impl fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

/// A staged data payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Actual bytes, with their digest.
    Inline(InlineBytes),
    /// Size and digest only; content is not materialized.
    Virtual {
        /// Logical size in bytes.
        len: u64,
        /// Digest standing in for the content.
        digest: u64,
    },
}

impl Payload {
    /// Build an inline payload from bytes, hashing them once.
    pub fn inline(data: impl Into<Bytes>) -> Self {
        Payload::Inline(InlineBytes::hashed(data.into()))
    }

    /// Build a virtual payload of `len` bytes whose digest is derived from
    /// the given identity words (e.g. var, version, bbox corner).
    pub fn virtual_from(len: u64, identity: &[u64]) -> Self {
        Payload::Virtual { len, digest: fnv1a_words(len, identity) }
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.bytes.len() as u64,
            Payload::Virtual { len, .. } => *len,
        }
    }

    /// True when the logical size is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content digest (memoized for inline, stored for virtual).
    pub fn digest(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.digest(),
            Payload::Virtual { digest, .. } => *digest,
        }
    }

    /// The bytes, if inline.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Inline(b) => Some(&b.bytes),
            Payload::Virtual { .. } => None,
        }
    }

    /// Memory actually resident for this payload (inline length; virtual
    /// payloads are accounted at their *logical* size because they stand in
    /// for real data in memory-usage experiments).
    pub fn accounted_len(&self) -> u64 {
        self.len()
    }
}

impl Serialize for Payload {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // Serialized form: (is_inline, len, digest, bytes?)
        use serde::ser::SerializeTuple;
        let mut t = s.serialize_tuple(4)?;
        t.serialize_element(&matches!(self, Payload::Inline(_)))?;
        t.serialize_element(&self.len())?;
        t.serialize_element(&self.digest())?;
        t.serialize_element::<[u8]>(self.bytes().map_or(&[], |b| b.as_ref()))?;
        t.end()
    }
}

impl<'de> Deserialize<'de> for Payload {
    /// An inline payload's recorded length and digest must match its bytes;
    /// a mismatch is an error, never a silently re-labelled payload.
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let (inline, len, digest, data): (bool, u64, u64, Vec<u8>) = Deserialize::deserialize(d)?;
        if !inline {
            return Ok(Payload::Virtual { len, digest });
        }
        if len != data.len() as u64 {
            return Err(D::Error::custom(format!(
                "inline payload records len {len} but carries {} bytes",
                data.len()
            )));
        }
        let p = Payload::inline(data);
        if p.digest() != digest {
            return Err(D::Error::custom(format!(
                "inline payload records digest {digest:016x} but its bytes hash to {:016x}",
                p.digest()
            )));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn inline_len_and_digest() {
        let p = Payload::inline(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.digest(), fnv1a(&[1, 2, 3]));
        assert_eq!(p.bytes().unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn virtual_is_deterministic() {
        let a = Payload::virtual_from(1024, &[7, 8, 9]);
        let b = Payload::virtual_from(1024, &[7, 8, 9]);
        let c = Payload::virtual_from(1024, &[7, 8, 10]);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.len(), 1024);
        assert!(a.bytes().is_none());
    }

    #[test]
    fn size_zero_is_empty() {
        assert!(Payload::inline(Vec::new()).is_empty());
        assert!(Payload::virtual_from(0, &[]).is_empty());
    }

    #[test]
    fn identity_words_order_sensitive() {
        let a = Payload::virtual_from(10, &[1, 2]);
        let b = Payload::virtual_from(10, &[2, 1]);
        assert_ne!(a.digest(), b.digest());
    }
}
