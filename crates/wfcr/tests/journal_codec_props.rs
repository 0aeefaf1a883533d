//! Property tests for the wfcr journal wire codec: binary round-trip over
//! every entry variant, the zero-copy meta/payload split, and truncation
//! never misdecoding.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::{fnv1a, Payload};
use staging::proto::ObjDesc;
use staging::wire;
use wfcr::journal::JournalEntry;

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

fn arb_entry() -> impl Strategy<Value = JournalEntry> {
    prop_oneof![
        (any::<u32>(), arb_desc(), arb_payload(), any::<u64>()).prop_map(
            |(app, desc, payload, digest)| JournalEntry::Put { app, desc, payload, digest }
        ),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            arb_bbox(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(app, var, requested, served, bbox, bytes, digest)| {
                JournalEntry::Get { app, var, requested, served, bbox, bytes, digest }
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), prop::option::of(any::<u32>())).prop_map(
            |(app, w_chk_id, upto_version, floor)| JournalEntry::Checkpoint {
                app,
                w_chk_id,
                upto_version,
                floor,
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, resume_version)| JournalEntry::Recovery { app, resume_version }),
    ]
}

proptest! {
    /// Binary encode → decode is the identity for every entry variant.
    #[test]
    fn binary_codec_round_trips(entry in arb_entry()) {
        let encoded = entry.encode();
        prop_assert_eq!(encoded[0], wire::WIRE_MAGIC);
        let back = JournalEntry::decode(&encoded).expect("binary decode");
        prop_assert_eq!(back, entry);
    }

    /// The zero-copy split (meta scratch + inline payload bytes riding as a
    /// separate vectored part) concatenates to the contiguous encoding.
    #[test]
    fn meta_plus_payload_equals_contiguous(entry in arb_entry()) {
        let mut split = Vec::new();
        entry.encode_meta_into(&mut split);
        if let Some(b) = entry.inline_payload() {
            split.extend_from_slice(b);
        }
        prop_assert_eq!(split, entry.encode());
    }

    /// Truncating a binary entry anywhere fails cleanly — no panic, and
    /// never a successful decode to a different entry.
    #[test]
    fn truncated_binary_never_misdecodes(entry in arb_entry()) {
        let encoded = entry.encode();
        for cut in 0..encoded.len() {
            if let Some(got) = JournalEntry::decode(&encoded[..cut]) {
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
        let encoded = JournalEntry::Put { app: 0, desc, payload: payload.clone(), digest: 0 }.encode();
        let back = match JournalEntry::decode(&encoded) {
            Some(JournalEntry::Put { payload, .. }) => payload,
            other => return Err(TestCaseError::fail(format!("decoded to {other:?}"))),
        };
        prop_assert_eq!(back.digest(), payload.digest());
        prop_assert_eq!(back, payload);
    }
}
