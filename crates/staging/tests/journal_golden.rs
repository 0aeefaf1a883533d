//! Golden bytes for the store-journal codec: the exact binary encoding of
//! every [`StoreJournalEntry`] variant, pinned as hex. Round-trip property
//! tests cannot see a change made to the encoder and decoder alike; these
//! can. A failure here means the on-media journal format changed.

use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, ObjDesc};
use staging::store_journal::StoreJournalEntry;

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
    "02000000",                                         // var 2
    "05000000",                                         // version 5
    "03",                                               // bbox ndim 3
    "010000000000000002000000000000000300000000000000", // bbox lb [1, 2, 3]
    "0a0000000000000014000000000000001e00000000000000", // bbox ub [10, 20, 30]
    "01",                                               // payload kind: inline
    "0600000000000000",                                 // payload len 6
    "c4d937fe8ec8722b",                                 // payload fnv1a
    "676f6c64656e",                                     // inline bytes "golden"
);
const PUT_VIRTUAL: &str = concat!(
    "b10101",                                           // magic 0xB1, codec version 1, tag 1
    "02000000",                                         // var 2
    "05000000",                                         // version 5
    "03",                                               // bbox ndim 3
    "010000000000000002000000000000000300000000000000", // bbox lb [1, 2, 3]
    "0a0000000000000014000000000000001e00000000000000", // bbox ub [10, 20, 30]
    "00",                                               // payload kind: virtual
    "0010000000000000",                                 // payload len 4096
    "efcdab8967452301",                                 // payload digest
);
const CTL_CHECKPOINT: &str = concat!(
    "b10102",   // magic 0xB1, codec version 1, tag 2
    "00",       // ctl kind: checkpoint
    "07000000", // app 7
    "05000000", // upto_version 5
);
const CTL_RECOVERY: &str = concat!(
    "b10102",   // magic 0xB1, codec version 1, tag 2
    "01",       // ctl kind: recovery
    "01000000", // app 1
    "04000000", // resume_version 4
);
const CTL_GLOBAL_RESET: &str = concat!(
    "b10102",   // magic 0xB1, codec version 1, tag 2
    "02",       // ctl kind: global reset
    "00000000", // app (unused) 0
    "03000000", // to_version 3
);

fn cases() -> Vec<(&'static str, StoreJournalEntry, &'static str)> {
    let desc = ObjDesc { var: 2, version: 5, bbox: bbox() };
    let ctl = |req| StoreJournalEntry::Ctl { req };
    vec![
        (
            "put inline",
            StoreJournalEntry::Put { desc, payload: Payload::inline(b"golden".to_vec()) },
            PUT_INLINE,
        ),
        (
            "put virtual",
            StoreJournalEntry::Put {
                desc,
                payload: Payload::Virtual { len: 4096, digest: 0x0123_4567_89AB_CDEF },
            },
            PUT_VIRTUAL,
        ),
        ("checkpoint", ctl(CtlRequest::Checkpoint { app: 7, upto_version: 5 }), CTL_CHECKPOINT),
        ("recovery", ctl(CtlRequest::Recovery { app: 1, resume_version: 4 }), CTL_RECOVERY),
        ("global reset", ctl(CtlRequest::GlobalReset { to_version: 3 }), CTL_GLOBAL_RESET),
    ]
}

#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    for (name, entry, golden) in cases() {
        assert_eq!(hex(&entry.encode()), golden, "{name}: encoding drifted");
        assert_eq!(StoreJournalEntry::decode(&unhex(golden)), Some(entry), "{name}: golden bytes");
    }
}
