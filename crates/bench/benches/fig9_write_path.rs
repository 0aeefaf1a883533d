//! Criterion bench for the Figure 9(a)/(b) write path: staging server put
//! handling with and without data/event logging, across payload sizes.
//!
//! This measures the *host* cost of our implementation's put path (backend
//! state transition + cost-model computation); the simulated response-time
//! ratios themselves are produced by `repro --exp fig9a/fig9b`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{ObjDesc, PutRequest};
use staging::service::{PlainBackend, ServerCosts, ServerLogic, StoreBackend};
use std::hint::black_box;
use wfcr::backend::LoggingBackend;

fn put_req(version: u32, bytes: u64) -> PutRequest {
    req_with(version, Payload::virtual_from(bytes, &[version as u64]))
}

fn req_with(version: u32, payload: Payload) -> PutRequest {
    PutRequest {
        app: 0,
        desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 1023) },
        payload,
        seq: version as u64,
        tctx: obs::TraceCtx::NONE,
    }
}

/// A logging backend with the writing app registered.
fn logging_backend() -> LoggingBackend {
    let mut backend = LoggingBackend::new();
    backend.register_app(0);
    backend
}

/// A logging backend with a segmented-log journal attached.
fn journaled_backend(flush: FlushPolicy, coalesce: usize) -> LoggingBackend {
    let cfg = LogConfig { segment_bytes: 256 * 1024, flush };
    let log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("open");
    let mut backend = logging_backend();
    backend.attach_journal_coalesced(Box::new(log), coalesce);
    backend
}

/// Time `handle_put` over a stream of increasing versions, checkpointing
/// every 64 puts when `ckpt` is set so the log stays bounded as in a real
/// run.
fn time_puts<B: StoreBackend>(
    b: &mut criterion::Bencher,
    mut logic: ServerLogic<B>,
    ckpt: bool,
    mut req: impl FnMut(u32) -> PutRequest,
) {
    let mut v = 0u32;
    b.iter(|| {
        v = v.wrapping_add(1);
        if ckpt && v.is_multiple_of(64) {
            logic
                .handle_ctl(staging::proto::CtlRequest::Checkpoint { app: 0, upto_version: v - 1 });
        }
        black_box(logic.handle_put(&req(v)))
    });
}

fn bench_put_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_write_path");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &bytes in &[4u64 << 10, 1 << 20, 16 << 20] {
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(BenchmarkId::new("plain", bytes), &bytes, |b, &bytes| {
            let logic = ServerLogic::new(PlainBackend::new(2), ServerCosts::default());
            time_puts(b, logic, false, |v| put_req(v, bytes));
        });
        group.bench_with_input(BenchmarkId::new("logging", bytes), &bytes, |b, &bytes| {
            let logic = ServerLogic::new(logging_backend(), ServerCosts::default());
            time_puts(b, logic, true, |v| put_req(v, bytes));
        });
        // Durable variants: the same logging backend with a segmented-log
        // journal attached, per-record fsync with no coalescing against
        // group commit + batched hand-off. The spread between these two
        // rows is the write-path cost the batching work removes.
        for (name, flush, coalesce) in [
            ("logging_journal_per_record", FlushPolicy::PerRecord, 1usize),
            ("logging_journal_grouped", FlushPolicy::Grouped { records: 16 }, 16usize),
        ] {
            group.bench_with_input(BenchmarkId::new(name, bytes), &bytes, |b, &bytes| {
                let backend = journaled_backend(flush, coalesce);
                let logic = ServerLogic::new(backend, ServerCosts::default());
                time_puts(b, logic, true, |v| put_req(v, bytes));
            });
        }
    }
    // Real 4 KiB blocks, as the threaded runs stage them: unlike the
    // virtual rows above, these see every per-byte cost on the server's
    // put path. The payload is built, and hashed, once outside the timed
    // loop, as a client builds it before sending; each put clones it.
    let block = Payload::inline(vec![0xA5u8; 4 << 10]);
    group.throughput(Throughput::Bytes(block.len()));
    group.bench_function("plain_inline/4096", |b| {
        let logic = ServerLogic::new(PlainBackend::new(2), ServerCosts::default());
        time_puts(b, logic, false, |v| req_with(v, block.clone()));
    });
    group.bench_function("logging_inline/4096", |b| {
        let logic = ServerLogic::new(logging_backend(), ServerCosts::default());
        time_puts(b, logic, true, |v| req_with(v, block.clone()));
    });
    group.bench_function("logging_journal_inline/4096", |b| {
        let backend = journaled_backend(FlushPolicy::Grouped { records: 16 }, 16);
        let logic = ServerLogic::new(backend, ServerCosts::default());
        time_puts(b, logic, true, |v| req_with(v, block.clone()));
    });
    group.finish();
}

fn bench_get_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_read_path");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &nversions in &[8u32, 64] {
        group.bench_with_input(
            BenchmarkId::new("logging_get", nversions),
            &nversions,
            |b, &nversions| {
                let mut backend = LoggingBackend::new();
                backend.register_app(0);
                backend.register_app(1);
                let mut logic = ServerLogic::new(backend, ServerCosts::default());
                for v in 1..=nversions {
                    logic.handle_put(&put_req(v, 1 << 16));
                }
                let mut v = 0u32;
                b.iter(|| {
                    v = v % nversions + 1;
                    let req = staging::proto::GetRequest {
                        app: 1,
                        var: 0,
                        version: v,
                        bbox: BBox::d1(0, 1023),
                        seq: 0,
                        tctx: obs::TraceCtx::NONE,
                    };
                    black_box(logic.handle_get(&req))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_put_path, bench_get_path);
criterion_main!(benches);
