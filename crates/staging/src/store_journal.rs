//! Optional durable journal for the plain staging store.
//!
//! The baseline staging backend keeps everything in memory; attaching a
//! `logstore::LogStore` gives it a durable twin of its write history so a
//! cold restart can rebuild the version store from disk. Puts carry their
//! full payload (the journal must be able to repopulate the data, not just
//! describe it); control events are commit points and force the buffered
//! tail down, so the durable prefix always extends at least through the
//! last checkpoint/reset marker.
//!
//! Entries use the binary [`crate::wire`] codec and are written through the
//! shared coalescing handle, `logstore::Journal<StoreJournalEntry>`.
//!
//! The richer crash-consistency backend (`wfcr::LoggingBackend`) has its own
//! journal encoding that additionally captures event-queue and GC history;
//! this module is deliberately minimal — store contents only.

use crate::proto::{CtlRequest, ObjDesc};
use crate::store::VersionedStore;
use crate::wire::{self, Reader};
use crate::Payload;
use bytes::Bytes;
use logstore::Entry;

const TAG_PUT: u8 = 1;
const TAG_CTL: u8 = 2;

const CTL_CHECKPOINT: u8 = 0;
const CTL_RECOVERY: u8 = 1;
const CTL_GLOBAL_RESET: u8 = 2;

/// One durable record of the plain store's history.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreJournalEntry {
    /// A stored write, payload included.
    Put {
        /// What was written.
        desc: ObjDesc,
        /// The written data (inline bytes or virtual size+digest).
        payload: Payload,
    },
    /// A workflow control event (checkpoint / recovery / global reset).
    Ctl {
        /// The control request, verbatim.
        req: CtlRequest,
    },
}

impl StoreJournalEntry {
    /// Encode everything *except* an inline payload's bytes into `out`
    /// (binary codec). The inline bytes — [`StoreJournalEntry::inline_payload`]
    /// — must land immediately after this prefix; the zero-copy append path
    /// hands them to the log as a separate vectored part.
    pub fn encode_meta_into(&self, out: &mut Vec<u8>) {
        match self {
            StoreJournalEntry::Put { desc, payload } => {
                wire::put_header(out, TAG_PUT);
                wire::put_u32(out, desc.var);
                wire::put_u32(out, desc.version);
                wire::put_bbox(out, &desc.bbox);
                wire::put_payload_meta(out, payload);
            }
            StoreJournalEntry::Ctl { req } => {
                wire::put_header(out, TAG_CTL);
                let (tag, app, version) = match *req {
                    CtlRequest::Checkpoint { app, upto_version } => {
                        (CTL_CHECKPOINT, app, upto_version)
                    }
                    CtlRequest::Recovery { app, resume_version } => {
                        (CTL_RECOVERY, app, resume_version)
                    }
                    CtlRequest::GlobalReset { to_version } => (CTL_GLOBAL_RESET, 0, to_version),
                };
                out.push(tag);
                wire::put_u32(out, app);
                wire::put_u32(out, version);
            }
        }
    }

    /// The inline payload bytes that follow the metadata prefix, if any.
    pub fn inline_payload(&self) -> Option<&Bytes> {
        match self {
            StoreJournalEntry::Put { payload, .. } => payload.bytes(),
            StoreJournalEntry::Ctl { .. } => None,
        }
    }

    /// Serialized form for the log record payload (binary codec).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_meta_into(&mut out);
        if let Some(b) = self.inline_payload() {
            out.extend_from_slice(b);
        }
        out
    }

    /// Parse a record payload back; `None` on format drift (the log frame
    /// CRC already rules out corruption).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (tag, mut r) = Reader::for_entry(bytes).ok()?;
        let entry = match tag {
            TAG_PUT => {
                let var = r.u32().ok()?;
                let version = r.u32().ok()?;
                let bbox = r.bbox().ok()?;
                let payload = r.payload().ok()?;
                StoreJournalEntry::Put { desc: ObjDesc { var, version, bbox }, payload }
            }
            TAG_CTL => {
                let ctl = r.u8().ok()?;
                let app = r.u32().ok()?;
                let version = r.u32().ok()?;
                let req = match ctl {
                    CTL_CHECKPOINT => CtlRequest::Checkpoint { app, upto_version: version },
                    CTL_RECOVERY => CtlRequest::Recovery { app, resume_version: version },
                    CTL_GLOBAL_RESET => CtlRequest::GlobalReset { to_version: version },
                    _ => return None,
                };
                StoreJournalEntry::Ctl { req }
            }
            _ => return None,
        };
        r.finish().ok()?;
        Some(entry)
    }
}

/// Delegates to the inherent codec methods, which callers without [`Entry`]
/// in scope use directly.
impl Entry for StoreJournalEntry {
    type Inline = Bytes;

    /// The data version this entry is tied to.
    fn watermark(&self) -> u64 {
        u64::from(match *self {
            StoreJournalEntry::Put { desc, .. } => desc.version,
            StoreJournalEntry::Ctl { req } => match req {
                CtlRequest::Checkpoint { upto_version, .. } => upto_version,
                CtlRequest::Recovery { resume_version, .. } => resume_version,
                CtlRequest::GlobalReset { to_version } => to_version,
            },
        })
    }

    /// Control events must be durable before the call returns.
    fn is_commit_point(&self) -> bool {
        matches!(self, StoreJournalEntry::Ctl { .. })
    }

    fn encode_meta_into(&self, out: &mut Vec<u8>) {
        StoreJournalEntry::encode_meta_into(self, out)
    }

    fn inline_payload(&self) -> Option<&Bytes> {
        StoreJournalEntry::inline_payload(self)
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        StoreJournalEntry::decode(bytes)
    }
}

/// Rebuild a bounded version store by replaying surviving journal entries in
/// order. `GlobalReset` entries re-apply their truncation so the rebuilt
/// store matches what the live store held after the reset; checkpoint and
/// recovery markers are metadata-only for the plain backend.
pub fn replay_into_store(entries: &[StoreJournalEntry], max_versions: usize) -> VersionedStore {
    let mut store = VersionedStore::bounded(max_versions);
    for e in entries {
        match e {
            StoreJournalEntry::Put { desc, payload } => {
                store.put(*desc, payload.clone());
            }
            StoreJournalEntry::Ctl { req } => {
                if let CtlRequest::GlobalReset { to_version } = req {
                    store.remove_newer_than(*to_version);
                }
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BBox;

    fn put(version: u32) -> StoreJournalEntry {
        StoreJournalEntry::Put {
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(64, &[u64::from(version)]),
        }
    }

    fn inline_put(version: u32) -> StoreJournalEntry {
        StoreJournalEntry::Put {
            desc: ObjDesc { var: 2, version, bbox: BBox::d1(10, 19) },
            payload: Payload::inline(vec![version as u8; 48]),
        }
    }

    #[test]
    fn entries_round_trip_through_encoding() {
        let entries = vec![
            put(3),
            inline_put(4),
            StoreJournalEntry::Ctl { req: CtlRequest::Checkpoint { app: 0, upto_version: 3 } },
            StoreJournalEntry::Ctl { req: CtlRequest::Recovery { app: 1, resume_version: 2 } },
            StoreJournalEntry::Ctl { req: CtlRequest::GlobalReset { to_version: 1 } },
        ];
        for e in &entries {
            assert_eq!(StoreJournalEntry::decode(&e.encode()).as_ref(), Some(e));
        }
        assert_eq!(entries[0].watermark(), 3);
        assert_eq!(entries[4].watermark(), 1);
        assert!(!entries[0].is_commit_point());
        assert!(entries[2].is_commit_point());
    }

    #[test]
    fn meta_plus_inline_bytes_is_the_full_encoding() {
        let e = inline_put(9);
        let mut meta = Vec::new();
        e.encode_meta_into(&mut meta);
        meta.extend_from_slice(e.inline_payload().unwrap());
        assert_eq!(meta, e.encode());
    }

    #[test]
    fn replay_applies_global_reset() {
        let entries = vec![
            put(1),
            put(2),
            put(3),
            StoreJournalEntry::Ctl { req: CtlRequest::GlobalReset { to_version: 2 } },
        ];
        let store = replay_into_store(&entries, 8);
        assert!(store.newest_version(0) == Some(2));
    }
}
