//! Property tests for the store-journal wire codec: the binary encoding
//! round-trips every representable entry, the zero-copy meta/payload split
//! matches the contiguous encoding, and truncation never misdecodes.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::{fnv1a, Payload};
use staging::proto::{CtlRequest, ObjDesc};
use staging::store_journal::StoreJournalEntry;
use staging::wire;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (1u8..=3, any::<[u64; 3]>(), any::<[u64; 3]>()).prop_map(|(ndim, lb, ub)| BBox { ndim, lb, ub })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::inline),
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

    /// An inline payload's digest is FNV-1a of its bytes.
    #[test]
    fn inline_digest_is_fnv1a_of_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(Payload::inline(data.clone()).digest(), fnv1a(&data));
    }

    /// A decoded put's inline payload equals the encoded one and, hashed
    /// lazily from the decoded bytes, reports the same digest.
    #[test]
    fn decoded_put_payload_keeps_its_digest(
        desc in arb_desc(),
        data in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let payload = Payload::inline(data);
        let encoded = StoreJournalEntry::Put { desc, payload: payload.clone() }.encode();
        let back = match StoreJournalEntry::decode(&encoded) {
            Some(StoreJournalEntry::Put { payload, .. }) => payload,
            other => return Err(TestCaseError::fail(format!("decoded to {other:?}"))),
        };
        prop_assert_eq!(back.digest(), payload.digest());
        prop_assert_eq!(back, payload);
    }
}
