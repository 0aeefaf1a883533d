#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # logstore — durable, segmented event/payload log
//!
//! The on-disk twin of the paper's in-memory staging log: everything the
//! crash-consistency layer keeps in process memory (event queues, data log,
//! checkpoint snapshots) can be journaled through this crate so a staging
//! process death loses nothing that was flushed.
//!
//! * [`checksum`] — the shared integrity primitives: the FNV-1a seal used by
//!   `ckpt` snapshots and the CRC32 (IEEE) used to frame log records.
//! * [`media`] — the byte-level I/O seam: [`media::Media`] abstracts
//!   append/sync/read/truncate so real files ([`media::FsMedia`]), in-memory
//!   crash-simulating storage ([`media::MemMedia`]), and fault-injecting
//!   wrappers ([`media::FaultyMedia`], driven by `faultplane` plans) are
//!   interchangeable.
//! * [`store`] — the log itself: [`store::LogStore`] appends length-prefixed
//!   CRC32-framed records into segment files, rotates segments at a size
//!   threshold, flushes under a configurable [`store::FlushPolicy`], recovers
//!   by truncating a torn tail, and compacts whole segments that fall below
//!   a watermark floor (the `W_Chk_ID`-driven GC, on disk).
//! * [`journal`] — the coalescing group-commit handle higher layers (wfcr's
//!   logging backend, staging's plain store) record through: a
//!   [`Journal<E>`] over any [`Entry`] type hands batches to one
//!   [`LogStore`], flushes at commit points, and counts I/O errors.

pub mod checksum;
pub mod journal;
pub mod media;
pub mod store;

pub use journal::{decode_records, Entry, Journal, JournalStats, DEFAULT_COALESCE};
pub use media::{FaultyMedia, FsMedia, Media, MemMedia};
pub use store::{BatchRecord, FlushPolicy, LogConfig, LogStore, Record};
