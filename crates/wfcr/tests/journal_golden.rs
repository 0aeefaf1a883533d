//! Golden bytes for the wfcr journal codec: the exact binary encoding of
//! every [`JournalEntry`] variant, pinned as hex. Round-trip property tests
//! cannot see a change made to the encoder and decoder alike; these can. A
//! failure here means the on-media journal format changed.

use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::ObjDesc;
use wfcr::journal::JournalEntry;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn bbox() -> BBox {
    BBox { ndim: 3, lb: [1, 2, 3], ub: [10, 20, 30] }
}

const PUT_INLINE: &str = concat!(
    "b10101",                                           // magic 0xB1, codec version 1, tag 1
    "07000000",                                         // app 7
    "02000000",                                         // var 2
    "05000000",                                         // version 5
    "03",                                               // bbox ndim 3
    "010000000000000002000000000000000300000000000000", // bbox lb [1, 2, 3]
    "0a0000000000000014000000000000001e00000000000000", // bbox ub [10, 20, 30]
    "efbefecacefaedfe",                                 // digest
    "01",                                               // payload kind: inline
    "0600000000000000",                                 // payload len 6
    "c4d937fe8ec8722b",                                 // payload fnv1a
    "676f6c64656e",                                     // inline bytes "golden"
);
const PUT_VIRTUAL: &str = concat!(
    "b10101",                                           // magic 0xB1, codec version 1, tag 1
    "07000000",                                         // app 7
    "02000000",                                         // var 2
    "05000000",                                         // version 5
    "03",                                               // bbox ndim 3
    "010000000000000002000000000000000300000000000000", // bbox lb [1, 2, 3]
    "0a0000000000000014000000000000001e00000000000000", // bbox ub [10, 20, 30]
    "efcdab8967452301",                                 // digest
    "00",                                               // payload kind: virtual
    "0010000000000000",                                 // payload len 4096
    "efcdab8967452301",                                 // payload digest
);
const GET: &str = concat!(
    "b10102",                                           // magic 0xB1, codec version 1, tag 2
    "01000000",                                         // app 1
    "02000000",                                         // var 2
    "06000000",                                         // requested 6
    "05000000",                                         // served 5
    "03",                                               // bbox ndim 3
    "010000000000000002000000000000000300000000000000", // bbox lb [1, 2, 3]
    "0a0000000000000014000000000000001e00000000000000", // bbox ub [10, 20, 30]
    "0010000000000000",                                 // bytes 4096
    "efcdab8967452301",                                 // digest
);
const CHECKPOINT_FLOOR: &str = concat!(
    "b10103",           // magic 0xB1, codec version 1, tag 3
    "07000000",         // app 7
    "0900000000000000", // w_chk_id 9
    "05000000",         // upto_version 5
    "0103000000",       // floor Some(3)
);
const CHECKPOINT_NO_FLOOR: &str = concat!(
    "b10103",           // magic 0xB1, codec version 1, tag 3
    "07000000",         // app 7
    "0900000000000000", // w_chk_id 9
    "05000000",         // upto_version 5
    "0000000000",       // floor None
);
const RECOVERY: &str = concat!(
    "b10104",   // magic 0xB1, codec version 1, tag 4
    "01000000", // app 1
    "04000000", // resume_version 4
);

fn cases() -> Vec<(&'static str, JournalEntry, &'static str)> {
    let desc = ObjDesc { var: 2, version: 5, bbox: bbox() };
    vec![
        (
            "put inline",
            JournalEntry::Put {
                app: 7,
                desc,
                payload: Payload::inline(b"golden".to_vec()),
                digest: 0xFEED_FACE_CAFE_BEEF,
            },
            PUT_INLINE,
        ),
        (
            "put virtual",
            JournalEntry::Put {
                app: 7,
                desc,
                payload: Payload::Virtual { len: 4096, digest: 0x0123_4567_89AB_CDEF },
                digest: 0x0123_4567_89AB_CDEF,
            },
            PUT_VIRTUAL,
        ),
        (
            "get",
            JournalEntry::Get {
                app: 1,
                var: 2,
                requested: 6,
                served: 5,
                bbox: bbox(),
                bytes: 4096,
                digest: 0x0123_4567_89AB_CDEF,
            },
            GET,
        ),
        (
            "checkpoint with floor",
            JournalEntry::Checkpoint { app: 7, w_chk_id: 9, upto_version: 5, floor: Some(3) },
            CHECKPOINT_FLOOR,
        ),
        (
            "checkpoint without floor",
            JournalEntry::Checkpoint { app: 7, w_chk_id: 9, upto_version: 5, floor: None },
            CHECKPOINT_NO_FLOOR,
        ),
        ("recovery", JournalEntry::Recovery { app: 1, resume_version: 4 }, RECOVERY),
    ]
}

#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    for (name, entry, golden) in cases() {
        assert_eq!(hex(&entry.encode()), golden, "{name}: encoding drifted");
        assert_eq!(JournalEntry::decode(&unhex(golden)), Some(entry), "{name}: golden bytes");
    }
}
