//! Persisting the staging log itself (FTI-style staging resilience).
//!
//! The paper's framework assumes the staging area keeps logged data
//! available across staging restarts ("it can also be integrated with the
//! third part framework such as FTI for data resilience"). This example
//! shows that integration surface: a logging staging server serializes its
//! quiescent state to JSON, is torn down, is rebuilt from the snapshot, and
//! then serves a component's rollback **replay** from the restored log.
//!
//! Run with:
//! ```text
//! cargo run --release --example log_snapshot
//! ```

use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest, PutStatus};
use staging::service::StoreBackend;
use wfcr::backend::{pieces_digest, LoggingBackend};

const SIM: u32 = 0;
const ANA: u32 = 1;

fn put(version: u32) -> PutRequest {
    let bbox = BBox::d1(0, 255);
    let data: Vec<u8> = (0..=255u32).map(|i| (i * version) as u8).collect();
    PutRequest {
        app: SIM,
        desc: ObjDesc { var: 0, version, bbox },
        payload: Payload::inline(data),
        seq: 0,
        tctx: obs::TraceCtx::NONE,
    }
}

fn get(version: u32) -> GetRequest {
    GetRequest {
        app: ANA,
        var: 0,
        version,
        bbox: BBox::d1(0, 255),
        seq: 0,
        tctx: obs::TraceCtx::NONE,
    }
}

fn main() {
    // Phase 1: normal coupling builds up a log.
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    let mut observed = Vec::new();
    for v in 1..=6u32 {
        backend.put(&put(v));
        let (pieces, _) = backend.get(&get(v));
        observed.push(pieces_digest(&pieces));
    }
    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: 3 });
    println!(
        "built staging log: {} bytes resident, {} versions of var 0",
        backend.bytes_resident(),
        backend.store().versions(0).len()
    );

    // Phase 2: persist the staging area (as FTI would) and tear it down.
    let snapshot = backend.snapshot().expect("backend is quiescent");
    let json = serde_json::to_vec(&snapshot).expect("serialize snapshot");
    println!("persisted staging snapshot: {} bytes of JSON", json.len());
    drop(backend);

    // Phase 3: staging restarts from the snapshot.
    let restored: wfcr::snapshot::LogSnapshot =
        serde_json::from_slice(&json).expect("parse snapshot");
    let mut backend = LoggingBackend::from_snapshot(restored);
    println!("restored staging log: {} bytes resident", backend.bytes_resident());

    // Phase 4: the analytics rolls back and replays against the restored log.
    let (resp, _) = backend.control(CtlRequest::Recovery { app: ANA, resume_version: 3 });
    println!("analytics workflow_restart(): {} events to replay", resp.pending_replay);
    for v in 4..=6u32 {
        let (pieces, _) = backend.get(&get(v));
        let digest = pieces_digest(&pieces);
        assert_eq!(digest, observed[(v - 1) as usize], "replayed step {v}");
        println!("replayed step {v}: digest {digest:#018x} == original ✓");
    }
    assert_eq!(backend.digest_mismatches(), 0);

    // Phase 5: and the producer keeps writing normally.
    let (status, _) = backend.put(&put(7));
    assert_eq!(status, PutStatus::Stored);
    println!("post-restore write of step 7 stored normally.");
    println!("\nOK: staging-log persistence round trip verified.");

    // Phase 6: the durable-journal alternative. Instead of serializing a
    // quiescent snapshot, the backend journals every event into a segmented
    // `logstore` as it happens; checkpoint markers are commit points that
    // force the buffered frames to media. A crash then needs no cooperation
    // from the dying process at all — recovery is a scan of whatever made it
    // to disk.
    let media = logstore::MemMedia::new();
    let log = logstore::LogStore::open(Box::new(media.clone()), logstore::LogConfig::default())
        .expect("open journal");
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    backend.attach_journal(Box::new(log));
    let mut observed = Vec::new();
    for v in 1..=6u32 {
        backend.put(&put(v));
        let (pieces, _) = backend.get(&get(v));
        observed.push(pieces_digest(&pieces));
    }
    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: 6 });
    println!(
        "\ndurable journal: {} bytes flushed at the checkpoint commit point",
        backend.journal_bytes_flushed()
    );
    assert_eq!(backend.journal_stats().errors, 0);
    drop(backend); // process death — no snapshot, no farewell flush
    media.crash(); // unsynced bytes vanish with the page cache

    // Recovery: scan the durable prefix and rebuild the staging log.
    let reopened = logstore::LogStore::open(Box::new(media), logstore::LogConfig::default())
        .expect("reopen journal");
    let entries = wfcr::journal::decode_records(&reopened.read_all().expect("scan"));
    println!("recovered {} journal entries from the segmented log", entries.len());
    let mut backend = LoggingBackend::from_journal(entries, &[SIM, ANA]);
    let (resp, _) = backend.control(CtlRequest::Recovery { app: ANA, resume_version: 3 });
    println!("analytics workflow_restart(): {} events to replay", resp.pending_replay);
    for v in 4..=6u32 {
        let (pieces, _) = backend.get(&get(v));
        let digest = pieces_digest(&pieces);
        assert_eq!(digest, observed[(v - 1) as usize], "journal-replayed step {v}");
        println!("replayed step {v}: digest {digest:#018x} == original ✓");
    }
    assert_eq!(backend.digest_mismatches(), 0);
    println!("\nOK: durable-journal round trip verified.");
}
