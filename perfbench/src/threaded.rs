//! Threaded part of each workload: one staging-server thread running the
//! logging backend with a journal, and one client thread driving a producer
//! and a consumer in a closed loop through the paper's four-call interface.
//!
//! Each step the producer writes a 64-block, 256 KiB field and the consumer
//! reads it back. Both sides checkpoint every [`CKPT_EVERY`] steps; the
//! consumer restarts every [`RESTART_EVERY`] steps and replays the reads since
//! its checkpoint. The session ends with a server kill (its thread stops and
//! its state is dropped without a flush), cold restarts from the journal, and
//! a digest comparison of the rebuilt server against the uninterrupted run.

use crate::spans::span;
use crate::stats::mix;
use ckpt::CheckpointStore;
use logstore::{FsMedia, LogConfig, LogStore, Media, MemMedia};
use net::threaded::ThreadedNet;
use parking_lot::Mutex;
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, GetPiece, PutStatus, Version};
use staging::service::{ServerCosts, ServerLogic};
use staging::threaded::{spawn_server, spawn_server_traced, SyncClient};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::iface::WorkflowClient;
use wfcr::journal::decode_records;

/// Field extent: 64³ one-byte points, 256 KiB.
pub const DOMAIN: [u64; 3] = [64, 64, 64];
/// Block extent: 16³ points, so the field is 64 blocks of 4 KiB.
pub const BLOCK: [u64; 3] = [16, 16, 16];
/// Both components checkpoint every this many steps.
pub const CKPT_EVERY: u32 = 8;
/// The consumer restarts every this many steps, [`RESTART_OFFSET`] steps
/// into the period, and replays the reads since its last checkpoint.
pub const RESTART_EVERY: u32 = 16;
/// See [`RESTART_EVERY`].
pub const RESTART_OFFSET: u32 = 12;

const SIM: AppId = 0;
const ANA: AppId = 1;
const VAR: u32 = 0;
/// Snapshot size each component reports to `workflow_check`.
const STATE_BYTES: u64 = 1 << 20;

/// Where the server's journal lives.
#[derive(Debug, Clone)]
pub enum JournalMedia {
    /// In-memory media (`MemMedia`): a kill drops everything not fsynced.
    Mem,
    /// Segment files under this directory (`FsMedia`), emptied per session.
    Fs(PathBuf),
}

/// Shape of one session.
#[derive(Debug, Clone)]
pub struct SessionCfg {
    /// Coupling steps (each one put and one get of the whole field).
    pub steps: u32,
    /// Journal media.
    pub media: JournalMedia,
    /// Run the server with its own span recorder (`spawn_server_traced`).
    pub traced_server: bool,
}

/// Cold restarts from the journal after each kill.
const COLD_RESTARTS: usize = 3;

/// Host costs of one cold restart, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdRestart {
    /// `LogStore::open` plus `read_all`.
    pub open_ms: f64,
    /// `decode_records`.
    pub decode_ms: f64,
    /// `LoggingBackend::from_journal`.
    pub from_journal_ms: f64,
}

impl ColdRestart {
    /// The whole restart.
    pub fn total_ms(&self) -> f64 {
        self.open_ms + self.decode_ms + self.from_journal_ms
    }
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// `LogStore::open` plus server spawn, seconds.
    pub setup_s: f64,
    /// Host seconds of each coupling step (put, get, checkpoints, restart
    /// and replay).
    pub step_s: Vec<f64>,
    /// Host seconds from the last step to the end: final checkpoint, kill,
    /// cold restarts and verification.
    pub tail_s: f64,
    /// Forward `put_with_log` latencies, µs.
    pub put_us: Vec<f64>,
    /// Forward `get_with_log` latencies, µs.
    pub get_us: Vec<f64>,
    /// `get_with_log` latencies while replaying after `workflow_restart`, µs.
    pub replay_us: Vec<f64>,
    /// `workflow_check` latencies, µs.
    pub check_us: Vec<f64>,
    /// `workflow_restart` latencies, µs.
    pub restart_us: Vec<f64>,
    /// Cold restarts after the kill.
    pub cold: Vec<ColdRestart>,
    /// Client operations and digest checks attempted.
    pub attempted: u64,
    /// Client operations that returned an error or a wrong digest.
    pub failed: u64,
    /// Puts the server applied (blocks).
    pub server_puts: u64,
    /// Gets the server answered (blocks).
    pub server_gets: u64,
    /// Records the server's tracer kept (0 when untraced).
    pub server_trace_records: u64,
    /// Journal bytes flushed before the kill.
    pub journal_bytes_flushed: u64,
    /// Journal group commits before the kill.
    pub journal_group_commits: u64,
    /// Journal records handed over in batches before the kill.
    pub journal_records_batched: u64,
}

enum Server {
    Plain(JoinHandle<ServerLogic<LoggingBackend>>),
    Traced(JoinHandle<(ServerLogic<LoggingBackend>, obs::Trace)>),
}

impl Server {
    fn join(self) -> (ServerLogic<LoggingBackend>, u64) {
        match self {
            Server::Plain(h) => (h.join().expect("staging server thread"), 0),
            Server::Traced(h) => {
                let (logic, trace) = h.join().expect("staging server thread");
                (logic, trace.records.len() as u64)
            }
        }
    }
}

/// The field the producer writes at `version`: per-block payloads keyed by
/// lower corner, and the digest a correct read of the whole field returns.
fn field(
    dist: &Distribution,
    domain: &BBox,
    seed: u64,
    version: Version,
) -> (BTreeMap<[u64; 3], Payload>, u64) {
    let mut blocks = BTreeMap::new();
    let mut pieces = Vec::new();
    for (i, (_, bbox, _)) in dist.blocks_overlapping(domain).into_iter().enumerate() {
        let mut x = mix(seed, u64::from(version) << 32 | i as u64) | 1;
        let mut data = Vec::with_capacity(bbox.volume() as usize);
        while data.len() < bbox.volume() as usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.extend_from_slice(&x.to_le_bytes());
        }
        data.truncate(bbox.volume() as usize);
        let payload = Payload::inline(data);
        pieces.push(GetPiece { bbox, version, payload: payload.clone() });
        blocks.insert(bbox.lb, payload);
    }
    (blocks, pieces_digest(&pieces))
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Open the journal and spawn one logging server on endpoint 0 of a fresh
/// three-endpoint mesh; returns the server and the two client endpoints'
/// workflow clients (producer, consumer).
fn start_server(
    backend: LoggingBackend,
    traced: bool,
    dist: &Distribution,
    ckpts: &Arc<Mutex<CheckpointStore>>,
) -> (Server, WorkflowClient, WorkflowClient) {
    let mut eps = ThreadedNet::mesh(3);
    let consumer_ep = eps.pop().expect("consumer endpoint");
    let producer_ep = eps.pop().expect("producer endpoint");
    let server_ep = eps.pop().expect("server endpoint");
    let logic = ServerLogic::new(backend, ServerCosts::default());
    let server = span("staging.spawn_server", || {
        if traced {
            Server::Traced(spawn_server_traced(server_ep, logic, 0))
        } else {
            Server::Plain(spawn_server(server_ep, logic))
        }
    });
    let client = |ep, app| {
        WorkflowClient::new(SyncClient::new(ep, dist.clone(), vec![0], app), Arc::clone(ckpts))
    };
    (server, client(producer_ep, SIM), client(consumer_ep, ANA))
}

/// Run one session with inputs generated from `seed`.
pub fn run_session(cfg: &SessionCfg, seed: u64) -> Session {
    let mut s = Session::default();
    let domain = BBox::whole(DOMAIN);
    let dist = Distribution::new(domain, BLOCK, 1);
    let ckpts = Arc::new(Mutex::new(CheckpointStore::new(3)));
    let mem = MemMedia::new();
    let media = || -> Box<dyn Media> {
        match &cfg.media {
            JournalMedia::Mem => Box::new(mem.clone()),
            JournalMedia::Fs(dir) => Box::new(FsMedia::new(dir).expect("create journal directory")),
        }
    };
    if let JournalMedia::Fs(dir) = &cfg.media {
        let _ = std::fs::remove_dir_all(dir);
    }

    let t = Instant::now();
    let log = span("logstore.open", || LogStore::open(media(), LogConfig::default()))
        .expect("open staging journal");
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    backend.attach_journal(Box::new(log));
    let (server, mut producer, mut consumer) =
        start_server(backend, cfg.traced_server, &dist, &ckpts);
    s.setup_s = t.elapsed().as_secs_f64();

    let mut digests: BTreeMap<Version, u64> = BTreeMap::new();
    let mut last_consumer_ckpt = 0;
    for v in 1..=cfg.steps {
        let (blocks, expected) = field(&dist, &domain, seed, v);
        let step = Instant::now();
        s.attempted += 1;
        let t = Instant::now();
        let put = span("wfcr.put_with_log", || {
            producer.put_with_log(VAR, v, &domain, |b: &BBox| blocks[&b.lb].clone())
        });
        s.put_us.push(micros(t));
        if !put.is_ok_and(|st| st.iter().all(|x| *x == PutStatus::Stored)) {
            s.failed += 1;
        }

        s.attempted += 1;
        let t = Instant::now();
        let got = span("wfcr.get_with_log", || consumer.get_with_log(VAR, v, &domain));
        s.get_us.push(micros(t));
        match got {
            Ok(p) if pieces_digest(&p) == expected => {
                digests.insert(v, expected);
            }
            _ => s.failed += 1,
        }

        if v % CKPT_EVERY == 0 {
            for (c, rng) in
                [(&mut producer, [v as u64, 1, 2, 3]), (&mut consumer, [v as u64, 4, 5, 6])]
            {
                s.attempted += 1;
                let t = Instant::now();
                let r = span("wfcr.workflow_check", || c.workflow_check(v + 1, rng, STATE_BYTES));
                s.check_us.push(micros(t));
                s.failed += u64::from(r.is_err());
            }
            last_consumer_ckpt = v;
        }

        if v % RESTART_EVERY == RESTART_OFFSET {
            s.attempted += 1;
            let t = Instant::now();
            let snap = span("wfcr.workflow_restart", || consumer.workflow_restart());
            s.restart_us.push(micros(t));
            match snap {
                Ok(snap) => {
                    for u in snap.resume_step..=v {
                        replay_get(&mut s, &mut consumer, &domain, u, digests.get(&u).copied());
                    }
                }
                Err(_) => s.failed += 1,
            }
        }
        s.step_s.push(step.elapsed().as_secs_f64());
    }
    let tail = Instant::now();
    // A final producer checkpoint is a commit point: everything before it,
    // including the consumer's reads since its last checkpoint, is durable.
    s.attempted += 1;
    let r =
        span("wfcr.workflow_check", || producer.workflow_check(cfg.steps + 1, [0; 4], STATE_BYTES));
    s.failed += u64::from(r.is_err());

    // Kill: stop the thread and drop its state without flushing the journal.
    let (logic, trace_records) = span("threaded.kill", || {
        consumer.shutdown_servers();
        server.join()
    });
    s.server_puts = logic.puts_served();
    s.server_gets = logic.gets_served();
    s.server_trace_records = trace_records;
    let b = logic.backend();
    s.journal_bytes_flushed = b.journal_bytes_flushed();
    s.journal_group_commits = b.journal_group_commits();
    s.journal_records_batched = b.journal_records_batched();
    s.attempted += 1;
    s.failed += u64::from(b.digest_mismatches() > 0);
    drop(logic);
    mem.crash();
    drop((producer, consumer));

    // Cold restarts from the journal.
    let mut rebuilt = None;
    for _ in 0..COLD_RESTARTS {
        let mut c = ColdRestart::default();
        let t = Instant::now();
        let records = span("logstore.open", || {
            LogStore::open(media(), LogConfig::default())
                .and_then(|log| span("logstore.read_all", || log.read_all()))
        })
        .expect("reopen staging journal");
        c.open_ms = millis(t);
        let t = Instant::now();
        let entries = span("wfcr.decode_records", || decode_records(&records));
        c.decode_ms = millis(t);
        let t = Instant::now();
        let backend =
            span("wfcr.from_journal", || LoggingBackend::from_journal(entries, &[SIM, ANA]));
        c.from_journal_ms = millis(t);
        s.cold.push(c);
        rebuilt = Some(backend);
    }
    let backend = rebuilt.expect("at least one cold restart");

    // The rebuilt store must hold what the uninterrupted run read.
    for u in last_consumer_ckpt + 1..=cfg.steps {
        s.attempted += 1;
        let pieces = backend.store().query(VAR, u, &domain);
        if Some(pieces_digest(&pieces)) != digests.get(&u).copied() {
            s.failed += 1;
        }
    }
    // And the consumer, restarting against it, must replay the same reads.
    let (server, _producer, mut consumer) = start_server(backend, false, &dist, &ckpts);
    s.attempted += 1;
    let t = Instant::now();
    let snap = span("wfcr.workflow_restart", || consumer.workflow_restart());
    s.restart_us.push(micros(t));
    match snap {
        Ok(snap) => {
            for u in snap.resume_step..=cfg.steps {
                replay_get(&mut s, &mut consumer, &domain, u, digests.get(&u).copied());
            }
        }
        Err(_) => s.failed += 1,
    }
    consumer.shutdown_servers();
    let (logic, _) = server.join();
    s.attempted += 1;
    s.failed += u64::from(logic.backend().digest_mismatches() > 0);
    s.tail_s = tail.elapsed().as_secs_f64();
    s
}

/// One replayed read, checked against the digest the original read saw.
fn replay_get(
    s: &mut Session,
    consumer: &mut WorkflowClient,
    domain: &BBox,
    u: Version,
    want: Option<u64>,
) {
    s.attempted += 1;
    let t = Instant::now();
    let got = span("wfcr.get_with_log.replay", || consumer.get_with_log(VAR, u, domain));
    s.replay_us.push(micros(t));
    if got.ok().map(|p| pieces_digest(&p)) != want {
        s.failed += 1;
    }
}
