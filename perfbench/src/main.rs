//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! perfbench --self-test [--work <dir>]
//! ```
//!
//! Each workload is a *pass* of discrete-event workflow runs plus a threaded
//! staging session, generated from the seed. With `--trace 0` the pass
//! repeats for `--seconds` and the end-to-end metrics are printed; with
//! `--trace 1` one untraced and one traced pass run, followed by the layer
//! probes, and the per-layer metrics are printed. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A failed output or paper-shape check prints `correct: false` and exits 1.

mod des;
mod probes;
mod spans;
mod stats;
mod threaded;

use des::{DesPass, PlannedRun, Suite};
use stats::{median, peak_rss_mib, percentile, secs};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use threaded::{JournalMedia, Session, SessionCfg};

/// Passes per measured run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One workload: its DES suite and its threaded session.
struct Workload {
    name: &'static str,
    suite: Suite,
    session: SessionCfg,
}

fn workload(name: &str, work: &Path) -> Option<Workload> {
    let session = |steps, media, traced_server| SessionCfg { steps, media, traced_server };
    Some(match name {
        "des-scale" => Workload {
            name: "des-scale",
            suite: Suite::Scale,
            session: session(100, JournalMedia::Mem, false),
        },
        "des-fig9-observed" => Workload {
            name: "des-fig9-observed",
            suite: Suite::Fig9Observed,
            session: session(100, JournalMedia::Mem, true),
        },
        "threaded-durable" => Workload {
            name: "threaded-durable",
            suite: Suite::DurableTwin,
            session: session(300, JournalMedia::Fs(work.join("threaded-journal")), false),
        },
        _ => return None,
    })
}

/// One pass: the DES runs, then the threaded session.
struct Pass {
    des: DesPass,
    session: Session,
    /// Host seconds of the whole pass.
    wall_s: f64,
    /// Peak resident memory of the process so far, MiB.
    peak_rss_mib: f64,
}

fn run_pass(w: &Workload, plan: &[PlannedRun], seed: u64) -> Pass {
    let t = Instant::now();
    let (des, session) = spans::span("bench.pass", || {
        let des = spans::span("des.pass", || DesPass::execute(plan));
        let session = spans::span("threaded.session", || threaded::run_session(&w.session, seed));
        (des, session)
    });
    Pass { des, session, wall_s: secs(t), peak_rss_mib: peak_rss_mib() }
}

/// Sum over a pass's parts (each DES run, each session step, the session's
/// set-up and tail) of the part's fastest time over the passes. The parts
/// repeat the same work every pass, and on a shared virtual machine
/// interference (CPU steal, contention, fsync stalls) only ever adds time
/// and comes in bursts that can outlast a run; each part's minimum is the
/// estimate of its cost that such bursts disturb least.
fn fastest_parts(passes: &[Pass], part: impl Fn(&Pass) -> Vec<f64>) -> f64 {
    let parts: Vec<Vec<f64>> = passes.iter().map(part).collect();
    (0..parts[0].len()).map(|i| parts.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min)).sum()
}

impl Pass {
    /// Host seconds of each part: every DES run (build, run, harvest), then
    /// the session's set-up plus tail, and each of its steps.
    fn part_wall_s(&self) -> Vec<f64> {
        let mut v: Vec<f64> =
            self.des.runs.iter().map(|(_, o)| o.build_s + o.run_s + o.harvest_s).collect();
        v.push(self.session.setup_s + self.session.tail_s);
        v.extend(&self.session.step_s);
        v
    }
    /// Set-up seconds of each part: `runner::build` per DES run, then the
    /// session's journal open and server spawn.
    fn part_setup_s(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.des.runs.iter().map(|(_, o)| o.build_s).collect();
        v.push(self.session.setup_s);
        v
    }
    fn attempted(&self) -> u64 {
        self.des.attempted() + self.session.attempted
    }
    fn failed(&self) -> u64 {
        self.des.failed() + self.session.failed
    }
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn pooled(passes: &[Pass], f: impl Fn(&Session) -> &Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(&p.session).iter().copied()).collect()
}

/// The end-to-end metrics of a measured run.
fn end_to_end(passes: &[Pass]) -> Metrics {
    let v = passes[0].des.virt();
    let cold: Vec<f64> =
        passes.iter().flat_map(|p| p.session.cold.iter().map(|c| c.total_ms())).collect();
    vec![
        ("setup_s", fastest_parts(passes, Pass::part_setup_s), "s"),
        ("wall_s", fastest_parts(passes, Pass::part_wall_s), "s"),
        // After the warm-up and the first measured pass: a fixed amount of
        // work, so heap growth across a varying number of passes cannot
        // leak into it.
        ("host_peak_rss_mib", passes[0].peak_rss_mib, "MiB"),
        ("put_p50_us", median(&pooled(passes, |s| &s.put_us)), "us"),
        ("get_p50_us", median(&pooled(passes, |s| &s.get_us)), "us"),
        ("replay_get_p50_us", median(&pooled(passes, |s| &s.replay_us)), "us"),
        ("restart_ms", median(&cold), "ms"),
        ("virt_total_s", v.total_s, "virt_s"),
        ("virt_cum_write_s", v.cum_write_s, "virt_s"),
        ("virt_staging_peak_mib", v.staging_peak_mib, "virt_MiB"),
    ]
}

/// Checks every run makes: paper shape, and that a second seed changes the
/// materialized failure schedule while the same seed repeats it.
fn common_checks(w: &Workload, seed: u64, plan: &[PlannedRun], first: &Pass) -> Vec<String> {
    let mut bad = first.des.paper_violations();
    let schedule =
        |p: &[PlannedRun]| format!("{:?}", p.iter().map(|r| &r.cfg.failures).collect::<Vec<_>>());
    if schedule(plan) != schedule(&des::plan(w.suite, seed)) {
        bad.push("the same seed materialized a different failure schedule".into());
    }
    if schedule(plan) == schedule(&des::plan(w.suite, seed.wrapping_add(1))) {
        bad.push("a second seed left the failure schedule unchanged".into());
    }
    bad
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn print_result(o: &Outcome) {
    let mut m = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.correct, o.attempted, o.failed
    );
}

fn report_lines(passes: &[Pass], metrics: &Metrics) {
    println!("passes: {}", passes.len());
    for (name, value, unit) in metrics {
        println!("  {name:<24} {value:>14.6} {unit}");
    }
    let n = |f: fn(&Session) -> &Vec<f64>| pooled(passes, f).len();
    println!(
        "  samples: put {} get {} replay_get {} cold_restart {} ({} steps/pass)",
        n(|s| &s.put_us),
        n(|s| &s.get_us),
        n(|s| &s.replay_us),
        passes.iter().map(|p| p.session.cold.len()).sum::<usize>(),
        passes[0].session.step_s.len()
    );
    let per_pass = |f: &dyn Fn(&Pass) -> String| passes.iter().map(f).collect::<Vec<_>>().join(" ");
    println!("  pass wall_s: {}", per_pass(&|p| format!("{:.3}", p.wall_s)));
    println!("  des runs/pass: {}", passes[0].des.runs.len());
    for (subset, o) in passes[0].des.write_overheads() {
        println!(
            "  Un-vs-Ds cumulative write overhead, subset {}%: {:.1}%",
            subset / 10,
            o * 100.0
        );
    }
}

fn measured_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let plan = des::plan(w.suite, seed);
    // One unmeasured pass first, so lazy set-up and the page cache settle.
    spans::span("bench.warmup", || run_pass(w, &plan, seed));
    let t = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || secs(t) < seconds {
        passes.push(run_pass(w, &plan, seed));
    }
    let mut bad = common_checks(w, seed, &plan, &passes[0]);
    let fp = passes[0].des.fingerprint();
    if passes.iter().any(|p| p.des.fingerprint() != fp) {
        bad.push("virtual-time results differ between passes of one seed".into());
    }
    let metrics = end_to_end(&passes);
    report_lines(&passes, &metrics);
    let attempted: u64 = passes.iter().map(Pass::attempted).sum::<u64>() + 1;
    let failed: u64 = passes.iter().map(Pass::failed).sum();
    let failed_total = failed + u64::from(!bad.is_empty());
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    println!(
        "error_rate: {:.6} ({failed_total} of {attempted})",
        failed_total as f64 / attempted as f64
    );
    Outcome { correct: failed_total == 0, attempted, failed: failed_total, metrics }
}

fn traced_run(w: &Workload, seed: u64, work: &Path) -> Outcome {
    let plan = des::plan(w.suite, seed);
    let untraced = run_pass(w, &plan, seed);
    spans::start();
    spans::set_trace(1);
    let traced = run_pass(w, &plan, seed);
    let mut bad = common_checks(w, seed, &plan, &traced);
    if traced.des.fingerprint() != untraced.des.fingerprint()
        || traced.des.virt() != untraced.des.virt()
    {
        bad.push("the traced pass's virtual-time results differ from the untraced pass".into());
    }

    spans::set_trace(2);
    let rep = des::representative(w.suite, seed);
    let toggles = probes::toggles(&rep, 5);
    if toggles.not_inert > 0 {
        bad.push(format!(
            "{} observational toggles changed the simulated outcome",
            toggles.not_inert
        ));
    }
    spans::set_trace(3);
    // The DES-shaped probe attributes `workflow.run_s`; the staging metrics
    // come from the probe shaped like the workload's own traffic.
    let des_shape = probes::Shape::of_config(&rep);
    let des_stg = spans::span("probe.staging", || probes::staging(&des_shape, 20_000));
    let (shape, stg) = match w.suite {
        Suite::DurableTwin => {
            let shape = probes::Shape::threaded();
            let stg = spans::span("probe.staging", || probes::staging(&shape, 20_000));
            (shape, stg)
        }
        _ => (des_shape, des_stg),
    };
    let (append_batch_us, open_ms) = probes::logstore(&shape, &work.join("probe-log"), 40);
    let recorded = spans::finish();

    let path = work.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    std::fs::write(&path, spans::to_jsonl(&recorded)).expect("write spans");
    println!("spans: {} written to {}", recorded.len(), path.display());
    println!("self time by span (traced pass and probes):");
    let mut st: Vec<_> = spans::self_times(&recorded).into_iter().collect();
    st.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, t) in &st {
        println!(
            "  {name:<28} calls {:>7}  total {:>10.6}s  self {:>10.6}s",
            t.calls, t.total_s, t.self_s
        );
    }

    let d = &traced.des;
    let s = &traced.session;
    let run_s = d.run_s();
    let puts = d.sum(|r| r.puts);
    let gets = d.sum(|r| r.gets);
    let events = d.sum(|r| r.events_dispatched);
    let staging_share =
        (des_stg.handle_put_ns * puts as f64 + des_stg.handle_get_ns * gets as f64) / (run_s * 1e9);
    println!(
        "attribution of workflow.run_s = {run_s:.6}s: staging server logic ~{:.1}% (probe ns x op count), \
         sim-core engine + runner + net + components ~{:.1}% (remainder)",
        staging_share * 100.0,
        (1.0 - staging_share) * 100.0
    );
    let shard_imbalance = d
        .reports()
        .filter(|r| !r.shard_puts.is_empty())
        .map(|r| {
            let max = r.shard_puts.iter().copied().max().unwrap_or(0) as f64;
            max / stats::mean(&r.shard_puts.iter().map(|&x| x as f64).collect::<Vec<_>>())
        })
        .fold(0.0, f64::max);
    let supervised: Vec<f64> =
        d.reports().filter(|r| r.restarts > 0).map(|r| r.mttr_mean_s).collect();
    let journal_bytes = d.sum(|r| r.log_bytes_flushed) + s.journal_bytes_flushed;
    let batched = d.sum(|r| r.journal_records_batched) + s.journal_records_batched;
    let journaled = d.sum(|r| if r.log_bytes_flushed > 0 { r.puts + r.gets } else { 0 })
        + s.server_puts
        + s.server_gets;
    let absorbed = d.sum(|r| r.absorbed_puts);
    let cold =
        |f: fn(&threaded::ColdRestart) -> f64| median(&s.cold.iter().map(f).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics: Metrics = vec![
        ("sim-core.events", events as f64, "count"),
        ("sim-core.ns_per_event", ratio(run_s * 1e9, events as f64), "ns"),
        ("workflow.build_s", d.build_s(), "s"),
        ("workflow.run_s", run_s, "s"),
        ("workflow.harvest_s", d.harvest_s(), "s"),
        ("workflow.steps_executed", d.sum(|r| r.steps_executed) as f64, "count"),
        ("workflow.rollback_steps", d.sum(|r| r.rollback_steps) as f64, "count"),
        ("net.msgs", d.sum(|r| r.net_msgs) as f64, "count"),
        ("net.bytes", d.sum(|r| r.net_bytes) as f64, "B"),
        ("net.virt_write_p99_s", d.virt().write_p99_s, "virt_s"),
        ("staging.handle_put_ns", stg.handle_put_ns, "ns"),
        ("staging.handle_get_ns", stg.handle_get_ns, "ns"),
        ("staging.replay_get_ns", stg.replay_get_ns, "ns"),
        ("staging.store_put_ns", stg.store_put_ns, "ns"),
        ("staging.store_query_ns", stg.store_query_ns, "ns"),
        ("staging.wire_encode_ns", stg.wire_encode_ns, "ns"),
        ("staging.wire_decode_ns", stg.wire_decode_ns, "ns"),
        ("staging.puts", (puts + s.server_puts) as f64, "count"),
        ("staging.gets", (gets + s.server_gets) as f64, "count"),
        ("staging.stale_gets", d.sum(|r| r.stale_gets) as f64, "count"),
        ("staging.threaded_put_p99_us", percentile(&s.put_us, 99.0), "us"),
        ("staging.threaded_put_samples", s.put_us.len() as f64, "count"),
        ("staging.threaded_get_p99_us", percentile(&s.get_us, 99.0), "us"),
        ("staging.threaded_get_samples", s.get_us.len() as f64, "count"),
        ("wfcr.absorbed_puts", absorbed as f64, "count"),
        ("wfcr.replayed_gets", d.sum(|r| r.replayed_gets) as f64, "count"),
        ("wfcr.absorb_ratio", ratio(absorbed as f64, puts as f64), "ratio"),
        (
            "wfcr.gc_reclaimed_mib",
            d.sum(|r| r.gc_reclaimed_bytes) as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        ("wfcr.workflow_check_us", median(&s.check_us), "us"),
        ("wfcr.workflow_restart_us", median(&s.restart_us), "us"),
        ("wfcr.decode_records_ms", cold(|c| c.decode_ms), "ms"),
        ("wfcr.from_journal_ms", cold(|c| c.from_journal_ms), "ms"),
        ("logstore.bytes_flushed", journal_bytes as f64, "B"),
        (
            "logstore.group_commits",
            (d.sum(|r| r.journal_group_commits) + s.journal_group_commits) as f64,
            "count",
        ),
        ("logstore.batch_ratio", ratio(batched as f64, journaled as f64), "ratio"),
        ("logstore.overhead_x", toggles.logstore_overhead_x, "x"),
        ("logstore.open_ms", open_ms, "ms"),
        ("logstore.append_batch_us", append_batch_us, "us"),
        ("ckpt.ckpts", d.sum(|r| r.ckpts) as f64, "count"),
        ("ckpt.restore_s", d.sum_f(|r| r.recovery_restore_s), "virt_s"),
        ("mpi-sim.ulfm_s", d.sum_f(|r| r.recovery_ulfm_s), "virt_s"),
        ("mpi-sim.co_rollback_s", d.sum_f(|r| r.co_rollback_s), "virt_s"),
        ("mpi-sim.virt_recovery_s", d.virt().recovery_s, "virt_s"),
        ("obs.records", toggles.obs_records as f64, "count"),
        ("obs.overhead_x", toggles.obs_overhead_x, "x"),
        ("obs.flight_overhead_x", toggles.flight_overhead_x, "x"),
        ("obs.export_jsonl_s", toggles.obs_export_jsonl_s, "s"),
        ("telemetry.windows", toggles.telemetry_windows as f64, "count"),
        ("telemetry.overhead_x", toggles.telemetry_overhead_x, "x"),
        ("telemetry.export_s", toggles.telemetry_export_s, "s"),
        ("supervise.restarts", d.sum(|r| r.restarts) as f64, "count"),
        ("supervise.mttr_mean_s", stats::mean(&supervised), "virt_s"),
        ("shardmap.put_imbalance", shard_imbalance, "ratio"),
        ("bench.trace_overhead_s", traced.wall_s - untraced.wall_s, "s"),
        ("bench.spans", recorded.len() as f64, "count"),
        ("attr.staging_share", staging_share, "fraction"),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "traced pass {:.6}s vs untraced {:.6}s; threaded server trace records {}",
        traced.wall_s, untraced.wall_s, s.server_trace_records
    );
    let attempted = untraced.attempted() + traced.attempted() + 1;
    let failed = untraced.failed() + traced.failed() + u64::from(!bad.is_empty());
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    println!("error_rate: {:.6} ({failed} of {attempted})", failed as f64 / attempted as f64);
    Outcome { correct: failed == 0, attempted, failed, metrics }
}

/// Same seed twice gives identical virtual-time results on every workload;
/// a second seed runs clean and changes the failure schedule.
fn self_test(work: &Path) -> bool {
    let mut ok = true;
    for name in ["des-scale", "des-fig9-observed", "threaded-durable"] {
        let w = workload(name, work).expect("known workload");
        let (a_plan, b_plan) = (des::plan(w.suite, 1), des::plan(w.suite, 2));
        let a = run_pass(&w, &a_plan, 1);
        let again = run_pass(&w, &a_plan, 1);
        let b = run_pass(&w, &b_plan, 2);
        let same =
            a.des.fingerprint() == again.des.fingerprint() && a.des.virt() == again.des.virt();
        let differs = format!("{:?}", a_plan.iter().map(|r| &r.cfg.failures).collect::<Vec<_>>())
            != format!("{:?}", b_plan.iter().map(|r| &r.cfg.failures).collect::<Vec<_>>());
        let clean = [&a, &again, &b].iter().all(|p| p.failed() == 0)
            && a.des.paper_violations().is_empty()
            && b.des.paper_violations().is_empty();
        println!("{name}: same seed identical {same}, second seed changes schedule {differs}, all clean {clean}");
        ok &= same && differs && clean;
    }
    ok
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        work: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--work" => a.work = PathBuf::from(value()?),
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.work).expect("create work directory");
    if args.self_test {
        return if self_test(&args.work) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let Some(w) = workload(&args.workload, &args.work) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    println!("workload {} seed {} trace {}", w.name, args.seed, u8::from(args.trace));
    let outcome = if args.trace {
        traced_run(&w, args.seed, &args.work)
    } else {
        measured_run(&w, args.seed, args.seconds)
    };
    print_result(&outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
