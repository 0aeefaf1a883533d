//! Serde round trips for wire/storage types (the staging-log snapshot and
//! experiment configs depend on them).

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::ObjDesc;

proptest! {
    #[test]
    fn inline_payload_round_trips(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let p = Payload::inline(data.clone());
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.len(), p.len());
        prop_assert_eq!(back.digest(), p.digest());
        prop_assert_eq!(back.bytes().unwrap().as_ref(), &data[..]);
    }

    #[test]
    fn virtual_payload_round_trips(len in 0u64..1_000_000, id in any::<u64>()) {
        let p = Payload::virtual_from(len, &[id]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.len(), len);
        prop_assert_eq!(back.digest(), p.digest());
        prop_assert!(back.bytes().is_none());
    }

    #[test]
    fn desc_round_trips(var in 0u32..10, version in 0u32..100, lo in 0u64..50, len in 1u64..50) {
        let d = ObjDesc { var, version, bbox: BBox::d1(lo, lo + len - 1) };
        let json = serde_json::to_string(&d).unwrap();
        let back: ObjDesc = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, d);
    }
}

#[test]
fn inline_and_virtual_serialize_distinctly() {
    let i = Payload::inline(vec![1, 2, 3]);
    let v = Payload::virtual_from(3, &[9]);
    let ji = serde_json::to_string(&i).unwrap();
    let jv = serde_json::to_string(&v).unwrap();
    assert_ne!(ji, jv);
    assert!(matches!(serde_json::from_str::<Payload>(&ji).unwrap(), Payload::Inline(_)));
    assert!(matches!(serde_json::from_str::<Payload>(&jv).unwrap(), Payload::Virtual { .. }));
}

#[test]
fn inline_metadata_must_match_its_bytes() {
    let json = serde_json::to_string(&Payload::inline(vec![1, 2, 3])).unwrap();
    let (inline, len, digest, data): (bool, u64, u64, Vec<u8>) =
        serde_json::from_str(&json).unwrap();
    let encode =
        |len: u64, digest: u64| serde_json::to_string(&(inline, len, digest, &data)).unwrap();
    assert!(serde_json::from_str::<Payload>(&encode(len, digest)).is_ok());

    let wrong_len = serde_json::from_str::<Payload>(&encode(len + 1, digest)).unwrap_err();
    assert!(wrong_len.to_string().contains("len"), "{wrong_len}");
    let wrong_digest = serde_json::from_str::<Payload>(&encode(len, digest ^ 1)).unwrap_err();
    assert!(wrong_digest.to_string().contains("digest"), "{wrong_digest}");
}
