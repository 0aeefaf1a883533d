//! The coalescing group-commit journal handle.
//!
//! Every durable staging log — the plain store's write history
//! (`staging::store_journal`) and the logging backend's event/data log
//! (`wfcr::journal`) — writes through one [`Journal`]. Only the record type
//! differs; it plugs in through [`Entry`].
//!
//! The handle *coalesces*: each entry's metadata prefix is encoded into one
//! reusable scratch buffer, its inline payload rides alongside by refcount
//! (never copied), and the [`LogStore`] receives whole [`BatchRecord`]
//! groups at natural boundaries — a commit point, or every `coalesce`
//! records ([`DEFAULT_COALESCE`] by default). Each group is one vectored
//! write and one flush decision (group commit). Coalesced entries are
//! exactly as volatile as log-buffered ones: a crash loses them, while a
//! commit point hands off *and* flushes, so the durable prefix always
//! extends through the last commit point.
//!
//! I/O errors are counted, not returned: journal failures degrade
//! durability, never the in-memory state, which stays authoritative.

use crate::store::{BatchRecord, LogStore, Record};
use std::fmt;
use std::ops::Range;

/// Records coalesced per hand-off to the log when no commit point arrives
/// first.
pub const DEFAULT_COALESCE: usize = 16;

/// A record type a [`Journal`] can carry: its compaction key, its commit
/// semantics, and its codec.
pub trait Entry: Sized {
    /// Inline payload bytes that follow the metadata prefix, shared (not
    /// copied) while the entry waits in the handle — e.g. `bytes::Bytes`.
    type Inline: AsRef<[u8]> + Clone;

    /// Compaction watermark: once every record of a sealed segment lies
    /// strictly below the checkpoint floor, the segment is deleted.
    fn watermark(&self) -> u64;

    /// Must this entry be durable before [`Journal::record`] returns?
    fn is_commit_point(&self) -> bool;

    /// Encode everything except the inline payload into `out`. The inline
    /// bytes land immediately after this prefix in the stored record.
    fn encode_meta_into(&self, out: &mut Vec<u8>);

    /// The inline payload that follows the metadata prefix, if any.
    fn inline_payload(&self) -> Option<&Self::Inline>;

    /// Parse a stored record body back; `None` on format drift (the log
    /// frame CRC already rules out corruption).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// A journal's counters. All zero for a backend without a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries recorded through the handle.
    pub entries_recorded: u64,
    /// Log I/O errors swallowed (durability degraded).
    pub errors: u64,
    /// Bytes the log has physically flushed (written and synced).
    pub bytes_flushed: u64,
    /// Segment files deleted by watermark compaction.
    pub segments_compacted: u64,
    /// Fsyncs that made two or more records durable at once.
    pub group_commits: u64,
    /// Records that reached the log through batched hand-offs.
    pub records_batched: u64,
}

/// A record coalesced in the handle, waiting for the next hand-off: its
/// metadata prefix lives in the shared scratch buffer, its inline payload
/// (if any) rides by refcount.
struct Pending<I> {
    watermark: u64,
    meta: Range<usize>,
    payload: Option<I>,
}

/// Owns a [`LogStore`], coalesces entries into batched group commits,
/// enforces commit-point flushes, and swallows I/O errors into a counter.
pub struct Journal<E: Entry> {
    log: LogStore,
    scratch: Vec<u8>,
    pending: Vec<Pending<E::Inline>>,
    coalesce: usize,
    entries_recorded: u64,
    errors: u64,
}

impl<E: Entry> fmt::Debug for Journal<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("entries_recorded", &self.entries_recorded)
            .field("pending", &self.pending.len())
            .field("errors", &self.errors)
            .finish()
    }
}

impl<E: Entry> Journal<E> {
    /// Wrap a log with the default coalescing window.
    pub fn new(log: LogStore) -> Self {
        Self::with_coalesce(log, DEFAULT_COALESCE)
    }

    /// Wrap a log, handing off batches every `coalesce` records (commit
    /// points always hand off immediately; 0 behaves as 1).
    pub fn with_coalesce(log: LogStore, coalesce: usize) -> Self {
        Journal {
            log,
            scratch: Vec::new(),
            pending: Vec::new(),
            coalesce: coalesce.max(1),
            entries_recorded: 0,
            errors: 0,
        }
    }

    /// Record one entry. The entry is encoded now (metadata into the shared
    /// scratch, payload by refcount) and handed to the log in a batch at the
    /// next boundary; commit-point entries hand off and flush immediately.
    // lint: commit-point
    pub fn record(&mut self, entry: &E) {
        self.entries_recorded += 1;
        let start = self.scratch.len();
        entry.encode_meta_into(&mut self.scratch);
        self.pending.push(Pending {
            watermark: entry.watermark(),
            meta: start..self.scratch.len(),
            payload: entry.inline_payload().cloned(),
        });
        if entry.is_commit_point() {
            self.flush();
        } else if self.pending.len() >= self.coalesce {
            self.hand_off();
        }
    }

    /// Hand every pending record to the log as one batch (one flush
    /// decision at the group boundary — the group commit).
    fn hand_off(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let Journal { log, scratch, pending, errors, .. } = self;
        let parts: Vec<[&[u8]; 2]> = pending
            .iter()
            .map(|p| [&scratch[p.meta.clone()], p.payload.as_ref().map_or(&[][..], |b| b.as_ref())])
            .collect();
        let batch: Vec<BatchRecord<'_>> = pending
            .iter()
            .zip(&parts)
            .map(|(p, parts)| BatchRecord { watermark: p.watermark, parts })
            .collect();
        if log.append_batch(&batch).is_err() {
            *errors += 1;
        }
        self.pending.clear();
        self.scratch.clear();
    }

    /// Force everything — coalesced and log-buffered — down to the media.
    pub fn flush(&mut self) {
        self.hand_off();
        if self.log.flush().is_err() {
            self.errors += 1;
        }
    }

    /// Drop sealed segments wholly below `floor`; returns segments removed.
    /// Pending records are handed off first so compaction sees the full
    /// stream.
    pub fn compact_below(&mut self, floor: u64) -> usize {
        self.hand_off();
        self.log.compact_below(floor).unwrap_or_else(|_| {
            self.errors += 1;
            0
        })
    }

    /// Entries coalesced in the handle, not yet handed to the log.
    pub fn pending_entries(&self) -> usize {
        self.pending.len()
    }

    /// The handle's and its log's counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            entries_recorded: self.entries_recorded,
            errors: self.errors,
            bytes_flushed: self.log.bytes_flushed(),
            segments_compacted: self.log.segments_compacted(),
            group_commits: self.log.group_commits(),
            records_batched: self.log.records_batched(),
        }
    }
}

/// Decode a recovered record stream (e.g. [`LogStore::read_all`]) into
/// entries, dropping undecodable bodies.
pub fn decode_records<E: Entry>(records: &[Record]) -> Vec<E> {
    records.iter().filter_map(|r| E::decode(&r.payload)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlushPolicy, LogConfig, MemMedia};

    /// A minimal entry: `[commit flag][version: u64 LE][inline bytes]`.
    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        version: u64,
        commit: bool,
        data: Vec<u8>,
    }

    impl Entry for Rec {
        type Inline = Vec<u8>;

        fn watermark(&self) -> u64 {
            self.version
        }

        fn is_commit_point(&self) -> bool {
            self.commit
        }

        fn encode_meta_into(&self, out: &mut Vec<u8>) {
            out.push(u8::from(self.commit));
            out.extend_from_slice(&self.version.to_le_bytes());
        }

        fn inline_payload(&self) -> Option<&Vec<u8>> {
            (!self.data.is_empty()).then_some(&self.data)
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            let (&commit, rest) = bytes.split_first()?;
            let version = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
            Some(Rec { version, commit: commit != 0, data: rest[8..].to_vec() })
        }
    }

    fn put(version: u64) -> Rec {
        Rec { version, commit: false, data: vec![version as u8; 48] }
    }

    fn checkpoint(version: u64) -> Rec {
        Rec { version, commit: true, data: Vec::new() }
    }

    fn open(mem: &MemMedia, flush: FlushPolicy) -> LogStore {
        let cfg = LogConfig { segment_bytes: 1 << 20, flush };
        LogStore::open(Box::new(mem.clone()), cfg).unwrap()
    }

    fn survivors(mem: &MemMedia) -> Vec<Rec> {
        decode_records(&open(mem, FlushPolicy::PerRecord).read_all().unwrap())
    }

    #[test]
    fn commit_points_force_the_tail_durable() {
        let mem = MemMedia::new();
        let mut j = Journal::new(open(&mem, FlushPolicy::PerBatch { records: 1000 }));
        j.record(&put(1));
        j.record(&put(2));
        let before_ctl = mem.synced_bytes();
        j.record(&checkpoint(2));
        assert!(mem.synced_bytes() > before_ctl, "checkpoint entry must flush");
        j.record(&put(3)); // coalesced again
        drop(j);
        mem.crash();
        let decoded = survivors(&mem);
        assert_eq!(decoded.len(), 3, "everything through the checkpoint survives");
        assert_eq!(decoded[2], checkpoint(2));
    }

    #[test]
    fn coalescing_batches_records_to_the_sink() {
        let mem = MemMedia::new();
        let mut j = Journal::with_coalesce(open(&mem, FlushPolicy::PerRecord), 8);
        for v in 0..8 {
            j.record(&put(v));
        }
        assert_eq!(j.pending_entries(), 0, "window reached: handed off");
        let stats = j.stats();
        assert_eq!(stats.records_batched, 8);
        // PerRecord log + batched hand-off = ONE group commit for all 8.
        assert_eq!(stats.group_commits, 1);
        let decoded = survivors(&mem);
        assert_eq!(decoded, (0..8).map(put).collect::<Vec<_>>(), "zero-copy path keeps bytes");
    }

    #[test]
    fn coalescing_hands_off_at_window_and_commit_points() {
        let mem = MemMedia::new();
        let mut j = Journal::with_coalesce(open(&mem, FlushPolicy::PerBatch { records: 1000 }), 4);
        for v in 0..3 {
            j.record(&put(v));
        }
        assert_eq!(j.pending_entries(), 3, "below the window: coalesced in the handle");
        j.record(&put(3));
        assert_eq!(j.pending_entries(), 0, "window reached: handed to the log");
        assert_eq!(j.stats().records_batched, 4);
        // A commit point hands off AND flushes, regardless of window fill.
        j.record(&put(4));
        j.record(&checkpoint(4));
        assert_eq!(j.pending_entries(), 0);
        assert_eq!(j.stats().errors, 0);
        assert_eq!(j.stats().entries_recorded, 6);
        // Everything is durable and decodes back.
        mem.crash();
        let decoded = survivors(&mem);
        assert_eq!(decoded.len(), 6);
        assert_eq!(decoded[5], checkpoint(4));
    }

    #[test]
    fn crash_loses_coalesced_tail_but_keeps_commit_prefix() {
        let mem = MemMedia::new();
        let mut j = Journal::new(open(&mem, FlushPolicy::PerBatch { records: 1000 }));
        j.record(&put(1));
        j.record(&checkpoint(1));
        j.record(&put(2)); // coalesced, never flushed
        drop(j);
        mem.crash();
        let decoded = survivors(&mem);
        assert_eq!(decoded, vec![put(1), checkpoint(1)], "the put after the checkpoint dies");
    }
}
