//! Per-layer probes for the traced run: each layer's public API timed on an
//! op stream shaped like the workload, and the representative workflow run
//! repeated with one observational feature toggled at a time.

use crate::des::{execute, RunOutcome, TELEMETRY_WINDOW_S};
use crate::spans::span;
use crate::stats::{median, mix};
use logstore::{BatchRecord, FsMedia, LogConfig, LogStore};
use sim_core::time::SimTime;
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest};
use staging::service::{ServerCosts, ServerLogic};
use staging::store::VersionedStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wfcr::backend::LoggingBackend;
use wfcr::journal::JournalEntry;
use wfcr::protocol::FtScheme;
use workflow::config::{DurabilityCfg, TelemetryCfg, TraceCfg, WorkflowConfig};
use workflow::RunReport;

/// The op stream one staging server sees, per version.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Blocks the server receives per version.
    pub blocks: Vec<BBox>,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Real bytes (threaded runs) or a size-and-digest stand-in (DES runs).
    pub inline: bool,
    /// Producer checkpoint period, steps.
    pub sim_period: u32,
    /// Consumer checkpoint period, steps.
    pub ana_period: u32,
}

impl Shape {
    /// The per-server stream of a DES configuration: its block size and
    /// count per server (at least one), virtual payloads, its periods.
    pub fn of_config(cfg: &WorkflowConfig) -> Shape {
        let dist = Distribution::new(cfg.domain_bbox(), cfg.block, cfg.nservers);
        let per_server = (dist.nblocks() / cfg.nservers).max(1);
        let blocks: Vec<BBox> = dist
            .blocks_overlapping(&cfg.domain_bbox())
            .into_iter()
            .take(per_server)
            .map(|b| b.1)
            .collect();
        let period = |i: usize| match cfg.components[i].scheme {
            FtScheme::CheckpointRestart { period } => period,
            _ => cfg.coordinated_period,
        };
        Shape {
            block_bytes: blocks[0].volume() * cfg.bytes_per_point,
            blocks,
            inline: false,
            sim_period: period(0),
            ana_period: period(1),
        }
    }

    /// The threaded session's stream: every block of the field, real bytes.
    pub fn threaded() -> Shape {
        use crate::threaded::{BLOCK, CKPT_EVERY, DOMAIN};
        let dist = Distribution::new(BBox::whole(DOMAIN), BLOCK, 1);
        let blocks: Vec<BBox> =
            dist.blocks_overlapping(&BBox::whole(DOMAIN)).into_iter().map(|b| b.1).collect();
        Shape {
            block_bytes: blocks[0].volume(),
            blocks,
            inline: true,
            sim_period: CKPT_EVERY,
            ana_period: CKPT_EVERY,
        }
    }

    fn payload(&self, version: u32, i: usize) -> Payload {
        let id = mix(u64::from(version), i as u64);
        if self.inline {
            Payload::inline(vec![id as u8; self.block_bytes as usize])
        } else {
            Payload::virtual_from(self.block_bytes, &[id])
        }
    }

    /// Steps per stream: four consumer periods and half of a fifth, so the
    /// consumer's last checkpoint leaves reads to replay.
    fn steps(&self) -> u32 {
        self.ana_period * 4 + (self.ana_period / 2).max(1)
    }
}

/// Median host ns per call of each staging-layer operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagingProbe {
    /// `ServerLogic::handle_put` (logging backend).
    pub handle_put_ns: f64,
    /// `ServerLogic::handle_get`, forward.
    pub handle_get_ns: f64,
    /// `ServerLogic::handle_get` while the consumer replays.
    pub replay_get_ns: f64,
    /// `VersionedStore::put`.
    pub store_put_ns: f64,
    /// `VersionedStore::query`.
    pub store_query_ns: f64,
    /// `JournalEntry::encode` of a put.
    pub wire_encode_ns: f64,
    /// `JournalEntry::decode` of a put.
    pub wire_decode_ns: f64,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Time the staging server logic, the store and the wire codec on `shape`,
/// repeating the stream until about `min_ops` puts were timed.
pub fn staging(shape: &Shape, min_ops: usize) -> StagingProbe {
    let steps = shape.steps();
    let per_stream = steps as usize * shape.blocks.len();
    let reps = min_ops.div_ceil(per_stream).max(2);
    let (mut put, mut get, mut replay, mut sput, mut squery) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut backend = LoggingBackend::new();
        backend.register_app(0);
        backend.register_app(1);
        let mut logic = ServerLogic::new(backend, ServerCosts::default());
        let mut store = VersionedStore::unbounded();
        let (mut seq, mut last_ana) = (0u64, 0u32);
        let mut next = || {
            seq += 1;
            seq
        };
        let get_req = |version, bbox, seq| GetRequest {
            app: 1,
            var: 0,
            version,
            bbox,
            seq,
            tctx: obs::TraceCtx::NONE,
        };
        for v in 1..=steps {
            for (i, &bbox) in shape.blocks.iter().enumerate() {
                let desc = ObjDesc { var: 0, version: v, bbox };
                let req = PutRequest {
                    app: 0,
                    desc,
                    payload: shape.payload(v, i),
                    seq: next(),
                    tctx: obs::TraceCtx::NONE,
                };
                let t = Instant::now();
                black_box(logic.handle_put(&req));
                put.push(ns(t));
                let t = Instant::now();
                black_box(store.put(desc, req.payload.clone()));
                sput.push(ns(t));
            }
            for &bbox in &shape.blocks {
                let req = get_req(v, bbox, next());
                let t = Instant::now();
                black_box(logic.handle_get(&req));
                get.push(ns(t));
                let t = Instant::now();
                black_box(store.query(0, v, &bbox));
                squery.push(ns(t));
            }
            if v % shape.sim_period == 0 {
                logic.handle_ctl(CtlRequest::Checkpoint { app: 0, upto_version: v });
            }
            if v % shape.ana_period == 0 {
                logic.handle_ctl(CtlRequest::Checkpoint { app: 1, upto_version: v });
                last_ana = v;
            }
        }
        logic.handle_ctl(CtlRequest::Recovery { app: 1, resume_version: last_ana });
        for v in last_ana + 1..=steps {
            for &bbox in &shape.blocks {
                let req = get_req(v, bbox, next());
                let t = Instant::now();
                black_box(logic.handle_get(&req));
                replay.push(ns(t));
            }
        }
    }
    let (enc, dec) = wire(shape, min_ops);
    StagingProbe {
        handle_put_ns: median(&put),
        handle_get_ns: median(&get),
        replay_get_ns: median(&replay),
        store_put_ns: median(&sput),
        store_query_ns: median(&squery),
        wire_encode_ns: enc,
        wire_decode_ns: dec,
    }
}

fn put_entry(shape: &Shape, i: usize) -> JournalEntry {
    let payload = shape.payload(1, i % shape.blocks.len());
    let bbox = shape.blocks[i % shape.blocks.len()];
    JournalEntry::Put {
        app: 0,
        desc: ObjDesc { var: 0, version: 1, bbox },
        digest: payload.digest(),
        payload,
    }
}

/// Median ns of encoding and decoding a put journal entry of `shape`.
fn wire(shape: &Shape, n: usize) -> (f64, f64) {
    let (mut enc, mut dec) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let entry = put_entry(shape, i);
        let t = Instant::now();
        let bytes = black_box(entry.encode());
        enc.push(ns(t));
        let t = Instant::now();
        let back = black_box(JournalEntry::decode(&bytes));
        dec.push(ns(t));
        assert_eq!(back.as_ref(), Some(&entry), "journal entry round-trips");
    }
    (median(&enc), median(&dec))
}

/// `LogStore` on real files: median µs of one `append_batch` of 16 put
/// records of `shape` under the default flush policy, and median ms of
/// reopening (recovery scan plus `read_all`) the resulting log.
pub fn logstore(shape: &Shape, dir: &Path, batches: usize) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let media = || Box::new(FsMedia::new(dir).expect("create probe log directory"));
    let mut log = LogStore::open(media(), LogConfig::default()).expect("open probe log");
    let entries: Vec<(Vec<u8>, Option<bytes::Bytes>)> = (0..16)
        .map(|i| {
            let e = put_entry(shape, i);
            let mut meta = Vec::new();
            e.encode_meta_into(&mut meta);
            (meta, e.inline_payload().cloned())
        })
        .collect();
    let mut append = Vec::with_capacity(batches);
    for b in 0..batches {
        let parts: Vec<[&[u8]; 2]> =
            entries.iter().map(|(m, p)| [m.as_slice(), p.as_deref().unwrap_or(&[])]).collect();
        let batch: Vec<BatchRecord<'_>> =
            parts.iter().map(|p| BatchRecord { watermark: b as u64, parts: p }).collect();
        let t = Instant::now();
        span("logstore.append_batch", || log.append_batch(&batch)).expect("append probe batch");
        append.push(t.elapsed().as_secs_f64() * 1e6);
    }
    log.flush().expect("flush probe log");
    drop(log);
    let mut open = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let records = span("logstore.open", || {
            LogStore::open(media(), LogConfig::default()).and_then(|l| l.read_all())
        })
        .expect("reopen probe log");
        open.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(records.len(), batches * 16, "probe log recovers every record");
    }
    let _ = std::fs::remove_dir_all(dir);
    (median(&append), median(&open))
}

/// Host cost of the observational features on the representative run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Toggles {
    /// Full tracing vs off.
    pub obs_overhead_x: f64,
    /// Flight recorder (4096 records) vs off.
    pub flight_overhead_x: f64,
    /// Telemetry vs off.
    pub telemetry_overhead_x: f64,
    /// Durable journal (in-memory media) vs off.
    pub logstore_overhead_x: f64,
    /// Trace records of the fully traced run.
    pub obs_records: u64,
    /// Seconds to export that trace as JSON lines.
    pub obs_export_jsonl_s: f64,
    /// Telemetry windows of the telemetry run.
    pub telemetry_windows: u64,
    /// Seconds to export that series as JSON lines.
    pub telemetry_export_s: f64,
    /// Variants whose simulated outcome differed from the base run.
    pub not_inert: u64,
}

/// The simulated outcome an observational feature must not change.
fn outcome(r: &RunReport) -> [u64; 10] {
    [
        r.total_time_s.to_bits(),
        r.cumulative_put_response_s.to_bits(),
        r.p99_put_response_s.to_bits(),
        r.staging_peak_bytes,
        r.puts,
        r.gets,
        r.rollback_steps,
        r.steps_executed,
        r.absorbed_puts,
        r.replayed_gets,
    ]
}

/// Run `base` with each feature toggled on, `reps` times each, interleaved.
pub fn toggles(base: &WorkflowConfig, reps: usize) -> Toggles {
    let window = SimTime::from_secs(TELEMETRY_WINDOW_S);
    let variants = [
        base.clone(),
        base.with_tracing(TraceCfg::full()),
        base.with_tracing(TraceCfg::flight(4096)),
        base.with_telemetry(TelemetryCfg::windowed(window)),
        base.with_durability(DurabilityCfg::default()),
    ];
    let mut run_s = vec![Vec::new(); variants.len()];
    let mut last: Vec<Option<RunOutcome>> = (0..variants.len()).map(|_| None).collect();
    let mut t = Toggles::default();
    for _ in 0..reps.max(1) {
        for (i, cfg) in variants.iter().enumerate() {
            let o = span("probe.toggle_run", || execute(cfg));
            run_s[i].push(o.run_s);
            last[i] = Some(o);
        }
    }
    let base_out = last[0].as_ref().and_then(|o| o.report.as_ref()).map(outcome);
    for o in &last[1..] {
        if o.as_ref().and_then(|o| o.report.as_ref()).map(outcome) != base_out || base_out.is_none()
        {
            t.not_inert += 1;
        }
    }
    let med: Vec<f64> = run_s.iter().map(|v| median(v)).collect();
    t.obs_overhead_x = med[1] / med[0];
    t.flight_overhead_x = med[2] / med[0];
    t.telemetry_overhead_x = med[3] / med[0];
    t.logstore_overhead_x = med[4] / med[0];
    if let Some(o) = &last[1] {
        t.obs_records = o.trace.records.len() as u64;
        let start = Instant::now();
        let text = span("obs.to_jsonl", || o.trace.to_jsonl());
        t.obs_export_jsonl_s = start.elapsed().as_secs_f64();
        black_box(text);
    }
    if let Some(series) =
        last[3].as_ref().and_then(|o| o.report.as_ref()).and_then(|r| r.series.as_ref())
    {
        t.telemetry_windows = series.windows.len() as u64;
        let start = Instant::now();
        let text = span("telemetry.to_jsonl", || telemetry::export::to_jsonl(series));
        t.telemetry_export_s = start.elapsed().as_secs_f64();
        black_box(text);
    }
    t
}
