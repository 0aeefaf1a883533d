//! Discrete-event part of each workload: which workflow runs make up one
//! pass, how each is executed through the runner's public calls, and the
//! virtual-time metrics and checks computed from the reports.

use crate::spans::span;
use crate::stats::{mean, mix, secs};
use sim_core::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wfcr::protocol::WorkflowProtocol as P;
use workflow::config::{
    table2, table3, DurabilityCfg, ShardAssign, ShardingCfg, SubsetPattern, SupervisionCfg,
    TelemetryCfg, TraceCfg, WorkflowConfig,
};
use workflow::runner::{build, harvest, materialize_failures};
use workflow::RunReport;

/// Events after which a run counts as stuck (the longest run here dispatches
/// well under a million).
const EVENT_LIMIT: u64 = 50_000_000;

/// Table III scale indices run by `des-scale`: 5,632 and 11,264 cores.
pub const SCALES: [usize; 2] = [3, 4];
/// Failure counts per `des-scale` cell.
pub const FAILURES: [usize; 2] = [1, 3];
/// Materialized failure schedules per `des-scale` cell, and of the
/// `threaded-durable` twin.
pub const SCHEDULES: u64 = 4;
/// Case-1 subset sweep of `des-fig9-observed`, per mille of the domain.
pub const SUBSETS: [u64; 3] = [200, 600, 1000];
/// Telemetry scrape window of the observed runs, virtual seconds.
pub const TELEMETRY_WINDOW_S: u64 = 5;

/// The DES experiment a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Table III at two scales and two failure counts, all four protocols
    /// on each materialized schedule; observational features off.
    Scale,
    /// Table II with durability (in-memory media), full tracing and
    /// telemetry on every run.
    Fig9Observed,
    /// Table II Co and Un with one failure on several schedules, durability
    /// on in-memory media, tracing and telemetry off.
    DurableTwin,
}

/// What a run contributes to the paper-shape checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A `des-scale` cell: Table III scale index and failure count.
    Scale(usize, usize),
    /// A failure-free Case-1 subset run: subset per mille, logging on (Un)
    /// or off (Ds).
    Subset(u64, bool),
    /// A run with a seeded component failure.
    Failure,
}

/// One planned workflow run.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// The configuration handed to `runner::build`.
    pub cfg: WorkflowConfig,
    /// Its role in the paper-shape checks.
    pub cell: Cell,
}

/// Case 1 writes a rotating subset of the domain each step.
fn with_subset(mut cfg: WorkflowConfig, subset_millis: u64) -> WorkflowConfig {
    for c in cfg.components.iter_mut() {
        c.subset_millis = subset_millis;
        c.subset_pattern = SubsetPattern::Rotating;
    }
    cfg.label = format!("{}/subset{}", cfg.label, subset_millis);
    cfg
}

/// Durability on in-memory media, full tracing, 5 s telemetry windows.
fn observed(cfg: WorkflowConfig) -> WorkflowConfig {
    cfg.with_durability(DurabilityCfg::default())
        .with_tracing(TraceCfg::full())
        .with_telemetry(TelemetryCfg::windowed(SimTime::from_secs(TELEMETRY_WINDOW_S)))
}

/// The runs of one pass of `suite` for `seed`.
pub fn plan(suite: Suite, seed: u64) -> Vec<PlannedRun> {
    let plain = |cfg, cell| PlannedRun { cfg, cell };
    let mut runs = Vec::new();
    match suite {
        Suite::Scale => {
            for &scale in &SCALES {
                for &nf in &FAILURES {
                    for sched in 0..SCHEDULES {
                        let stream = (scale as u64) << 16 | (nf as u64) << 8 | sched;
                        let seed_cfg =
                            table3(scale, P::Uncoordinated, nf).with_seed(mix(seed, stream));
                        let failures = materialize_failures(&seed_cfg);
                        for proto in [P::Coordinated, P::Uncoordinated, P::Hybrid, P::Individual] {
                            let cfg = table3(scale, proto, nf)
                                .with_seed(seed_cfg.seed)
                                .with_failures(failures.clone());
                            runs.push(plain(cfg, Cell::Scale(scale, nf)));
                        }
                    }
                }
            }
        }
        Suite::Fig9Observed => {
            let s = mix(seed, 0xF19);
            for &subset in &SUBSETS {
                for (proto, logged) in [(P::FailureFree, false), (P::Uncoordinated, true)] {
                    let cfg = with_subset(table2(proto), subset).with_failures(vec![]).with_seed(s);
                    runs.push(plain(observed(cfg), Cell::Subset(subset, logged)));
                }
            }
            let failures = materialize_failures(&table2(P::Uncoordinated).with_seed(s));
            let co = table2(P::Coordinated).with_seed(s).with_failures(failures.clone());
            runs.push(plain(observed(co), Cell::Failure));
            let un = table2(P::Uncoordinated)
                .with_seed(s)
                .with_failures(failures)
                .with_supervision(SupervisionCfg::default())
                .with_sharding(ShardingCfg {
                    assign: ShardAssign::Hashed { seed: s },
                    rebalance: None,
                });
            runs.push(plain(observed(un), Cell::Failure));
        }
        Suite::DurableTwin => {
            for sched in 0..SCHEDULES {
                let s = mix(seed, 0xD700 | sched);
                let failures = materialize_failures(&table2(P::Uncoordinated).with_seed(s));
                for proto in [P::Coordinated, P::Uncoordinated] {
                    let cfg = table2(proto)
                        .with_seed(s)
                        .with_failures(failures.clone())
                        .with_durability(DurabilityCfg::default());
                    runs.push(plain(cfg, Cell::Failure));
                }
            }
        }
    }
    runs
}

/// The configuration the toggle probes vary: one representative run of the
/// suite with every observational feature off.
pub fn representative(suite: Suite, seed: u64) -> WorkflowConfig {
    match suite {
        Suite::Scale => {
            let cfg = table3(SCALES[0], P::Uncoordinated, 1).with_seed(mix(seed, 0x5CA1E));
            let failures = materialize_failures(&cfg);
            cfg.with_failures(failures)
        }
        Suite::Fig9Observed | Suite::DurableTwin => {
            let cfg = table2(P::Uncoordinated).with_seed(mix(seed, 0xF19));
            let failures = materialize_failures(&cfg);
            cfg.with_failures(failures)
        }
    }
}

/// Host timings and outcome of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The harvested report; `None` when the run panicked (a stuck run trips
    /// the harvest assertion).
    pub report: Option<RunReport>,
    /// `runner::build`, seconds.
    pub build_s: f64,
    /// `Engine::run_limited`, seconds.
    pub run_s: f64,
    /// `runner::harvest`, seconds.
    pub harvest_s: f64,
    /// The run's causal trace (empty unless the config enables tracing).
    pub trace: obs::Trace,
}

/// Build, run and harvest one configuration, catching a panic as a failed
/// run.
pub fn execute(cfg: &WorkflowConfig) -> RunOutcome {
    let mut timings = (0.0, 0.0, 0.0);
    let mut trace = obs::Trace::default();
    let report = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut built = span("workflow.build", || build(cfg));
        timings.0 = secs(t);
        let t = Instant::now();
        span("sim-core.run_limited", || built.engine.run_limited(EVENT_LIMIT));
        timings.1 = secs(t);
        let t = Instant::now();
        let report = span("workflow.harvest", || harvest(&mut built));
        timings.2 = secs(t);
        trace = built.tracer.finish();
        report
    }))
    .ok();
    RunOutcome { report, build_s: timings.0, run_s: timings.1, harvest_s: timings.2, trace }
}

/// Does this report fail the output checks? Under the logging protocols a
/// replay must reproduce every digest and serve no stale version.
pub fn report_ok(r: &RunReport) -> bool {
    !(r.protocol.uses_logging() && (r.digest_mismatches > 0 || r.stale_gets > 0))
}

/// One executed pass.
#[derive(Debug, Default)]
pub struct DesPass {
    /// Planned runs with their outcomes, in plan order.
    pub runs: Vec<(Cell, RunOutcome)>,
}

impl DesPass {
    /// Execute `plan` in order.
    pub fn execute(plan: &[PlannedRun]) -> DesPass {
        let runs = plan
            .iter()
            .map(|p| {
                let mut outcome = span("des.run", || execute(&p.cfg));
                // Passes are kept until the run ends; their traces are not
                // needed and would pile up.
                outcome.trace = obs::Trace::default();
                (p.cell, outcome)
            })
            .collect();
        DesPass { runs }
    }

    /// Reports of the runs that completed.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.runs.iter().filter_map(|(_, o)| o.report.as_ref())
    }

    /// Runs attempted.
    pub fn attempted(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Runs that got stuck or failed an output check.
    pub fn failed(&self) -> u64 {
        self.runs.iter().filter(|(_, o)| !o.report.as_ref().is_some_and(report_ok)).count() as u64
    }

    /// Summed `runner::build` time, seconds.
    pub fn build_s(&self) -> f64 {
        self.runs.iter().map(|(_, o)| o.build_s).sum()
    }

    /// Summed `Engine::run_limited` time, seconds.
    pub fn run_s(&self) -> f64 {
        self.runs.iter().map(|(_, o)| o.run_s).sum()
    }

    /// Summed `runner::harvest` time, seconds.
    pub fn harvest_s(&self) -> f64 {
        self.runs.iter().map(|(_, o)| o.harvest_s).sum()
    }

    /// Sum of `f` over completed reports.
    pub fn sum(&self, f: impl Fn(&RunReport) -> u64) -> u64 {
        self.reports().map(f).sum()
    }

    /// Sum of `f` over completed reports (floating point).
    pub fn sum_f(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        self.reports().map(f).sum()
    }

    /// The paper's virtual-time metrics over the completed runs.
    pub fn virt(&self) -> Virt {
        let each = |f: fn(&RunReport) -> f64| mean(&self.reports().map(f).collect::<Vec<_>>());
        let recoveries = self.sum(|r| r.recoveries);
        let recovery_total =
            self.sum_f(|r| r.recovery_ulfm_s + r.recovery_restore_s + r.co_rollback_s);
        Virt {
            total_s: each(|r| r.total_time_s),
            cum_write_s: each(|r| r.cumulative_put_response_s),
            write_p99_s: each(|r| r.p99_put_response_s),
            staging_peak_mib: each(|r| r.staging_peak_bytes as f64 / (1u64 << 20) as f64),
            recovery_s: if recoveries == 0 { 0.0 } else { recovery_total / recoveries as f64 },
        }
    }

    /// Bit pattern of every virtual-time quantity and count of every run:
    /// two passes of one seed must produce equal fingerprints.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, o) in &self.runs {
            let Some(r) = &o.report else {
                out.push(u64::MAX);
                continue;
            };
            out.extend([
                r.total_time_s.to_bits(),
                r.cumulative_put_response_s.to_bits(),
                r.p99_put_response_s.to_bits(),
                r.staging_peak_bytes,
                r.recovery_ulfm_s.to_bits(),
                r.recovery_restore_s.to_bits(),
                r.co_rollback_s.to_bits(),
                r.puts,
                r.gets,
                r.ckpts,
                r.recoveries,
                r.rollback_steps,
                r.steps_executed,
                r.absorbed_puts,
                r.replayed_gets,
                r.gc_reclaimed_bytes,
                r.net_msgs,
                r.net_bytes,
                r.events_dispatched,
                r.log_bytes_flushed,
                r.journal_group_commits,
                r.restarts,
            ]);
        }
        out
    }

    /// The paper-shape checks that apply to this pass; each entry is a
    /// violated check.
    pub fn paper_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        // Un total <= Co total in every des-scale cell (mean over schedules).
        let mut cells: Vec<(usize, usize)> = Vec::new();
        for (c, _) in &self.runs {
            if let Cell::Scale(s, f) = *c {
                if !cells.contains(&(s, f)) {
                    cells.push((s, f));
                }
            }
        }
        for (s, f) in cells {
            let total = |proto: P| {
                let xs: Vec<f64> = self
                    .runs
                    .iter()
                    .filter(|(c, _)| *c == Cell::Scale(s, f))
                    .filter_map(|(_, o)| o.report.as_ref())
                    .filter(|r| r.protocol == proto)
                    .map(|r| r.total_time_s)
                    .collect();
                mean(&xs)
            };
            let (co, un) = (total(P::Coordinated), total(P::Uncoordinated));
            if un > co {
                out.push(format!("table3 scale {s} {f}f: Un total {un:.3}s > Co total {co:.3}s"));
            }
        }
        // Un-vs-Ds cumulative write overhead within the paper's 10-15% band.
        for (subset, overhead) in self.write_overheads() {
            if !(0.10..=0.15).contains(&overhead) {
                out.push(format!(
                    "subset {}%: Un-vs-Ds write overhead {:.1}% outside 10-15%",
                    subset / 10,
                    overhead * 100.0
                ));
            }
        }
        out
    }

    /// Un-vs-Ds cumulative write overhead per subset whose two runs
    /// completed.
    pub fn write_overheads(&self) -> Vec<(u64, f64)> {
        SUBSETS
            .iter()
            .filter_map(|&subset| {
                let cum = |logged: bool| {
                    self.runs
                        .iter()
                        .find(|(c, _)| *c == Cell::Subset(subset, logged))
                        .and_then(|(_, o)| o.report.as_ref())
                        .map(|r| r.cumulative_put_response_s)
                };
                Some((subset, cum(true)? / cum(false)? - 1.0))
            })
            .collect()
    }
}

/// The paper's virtual-time metrics of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virt {
    /// Mean total workflow time, virtual s.
    pub total_s: f64,
    /// Mean cumulative put response time, virtual s.
    pub cum_write_s: f64,
    /// Mean per-run p99 put response time, virtual s.
    pub write_p99_s: f64,
    /// Mean peak staging memory, virtual MiB.
    pub staging_peak_mib: f64,
    /// (ULFM + restore + Co rollback) per recovery, virtual s.
    pub recovery_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_plan_shares_schedules_across_protocols() {
        let runs = plan(Suite::Scale, 1);
        assert_eq!(runs.len(), SCALES.len() * FAILURES.len() * SCHEDULES as usize * 4);
        for group in runs.chunks(4) {
            let f0 = format!("{:?}", group[0].cfg.failures);
            assert!(group.iter().all(|r| format!("{:?}", r.cfg.failures) == f0));
        }
    }

    #[test]
    fn seeds_change_failure_schedules() {
        let a = plan(Suite::Scale, 1);
        let b = plan(Suite::Scale, 2);
        assert_ne!(format!("{:?}", a[0].cfg.failures), format!("{:?}", b[0].cfg.failures));
        let again = plan(Suite::Scale, 1);
        assert_eq!(format!("{:?}", a[0].cfg.failures), format!("{:?}", again[0].cfg.failures));
    }
}
