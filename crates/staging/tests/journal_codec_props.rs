//! Property tests for the store-journal wire codec: the binary encoding
//! round-trips every representable entry, the zero-copy meta/payload split
//! matches the contiguous encoding, and truncation never misdecodes.

use bytes::Bytes;
use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, ObjDesc};
use staging::store_journal::StoreJournalEntry;
use staging::wire;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (1u8..=3, any::<[u64; 3]>(), any::<[u64; 3]>()).prop_map(|(ndim, lb, ub)| BBox { ndim, lb, ub })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|b| Payload::Inline(Bytes::from(b))),
        (any::<u64>(), any::<u64>()).prop_map(|(len, digest)| Payload::Virtual { len, digest }),
    ]
}

fn arb_desc() -> impl Strategy<Value = ObjDesc> {
    (any::<u32>(), any::<u32>(), arb_bbox()).prop_map(|(var, version, bbox)| ObjDesc {
        var,
        version,
        bbox,
    })
}

fn arb_ctl() -> impl Strategy<Value = CtlRequest> {
    prop_oneof![
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, upto_version)| CtlRequest::Checkpoint { app, upto_version }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, resume_version)| CtlRequest::Recovery { app, resume_version }),
        any::<u32>().prop_map(|to_version| CtlRequest::GlobalReset { to_version }),
    ]
}

fn arb_entry() -> impl Strategy<Value = StoreJournalEntry> {
    prop_oneof![
        (arb_desc(), arb_payload())
            .prop_map(|(desc, payload)| StoreJournalEntry::Put { desc, payload }),
        arb_ctl().prop_map(|req| StoreJournalEntry::Ctl { req }),
    ]
}

proptest! {
    /// Binary encode → decode is the identity for every representable entry.
    #[test]
    fn binary_codec_round_trips(entry in arb_entry()) {
        let encoded = entry.encode();
        prop_assert_eq!(encoded[0], wire::WIRE_MAGIC);
        let back = StoreJournalEntry::decode(&encoded).expect("binary decode");
        prop_assert_eq!(back, entry);
    }

    /// The zero-copy split (meta scratch + payload bytes as a separate
    /// vectored part) concatenates to exactly the contiguous encoding.
    #[test]
    fn meta_plus_payload_equals_contiguous(entry in arb_entry()) {
        let mut split = Vec::new();
        entry.encode_meta_into(&mut split);
        if let Some(b) = entry.inline_payload() {
            split.extend_from_slice(b);
        }
        prop_assert_eq!(split, entry.encode());
    }

    /// Truncating a binary entry anywhere must fail cleanly, never panic or
    /// decode to a different entry.
    #[test]
    fn truncated_binary_never_misdecodes(entry in arb_entry()) {
        let encoded = entry.encode();
        for cut in 0..encoded.len() {
            if let Some(got) = StoreJournalEntry::decode(&encoded[..cut]) {
                prop_assert_eq!(got, entry.clone(), "a prefix decoded to a different entry");
            }
        }
    }
}
