//! A tiny named-metric registry used by every simulated subsystem.
//!
//! Three metric kinds are enough for the reproduction:
//!
//! * **counters** — monotonically increasing `u64` (bytes written, puts served,
//!   rollbacks performed, ...);
//! * **gauges** — instantaneous `i64` values with peak tracking (staging
//!   memory in use, queue depth, ...);
//! * **streams** — [`StreamStats`] accumulators over `f64` samples (write
//!   response times, recovery latencies, ...).
//!
//! Names are plain strings; subsystems namespace themselves by convention
//! (`"staging.put_bytes"`, `"wfcr.replayed_events"`).

use crate::stats::StreamStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use telemetry::hist::{ns_to_secs, secs_to_ns};
use telemetry::Histogram;

/// Gauge state: current value plus high-water marks.
///
/// A gauge updated in one registry has `peak == peak_upper` (the exact
/// high-water mark). The two diverge only after [`Metrics::merge`]: per-part
/// peaks need not coincide in time, so the true combined high-water mark is
/// only *bounded* — `peak` is the largest value provably reached (lower
/// bound), `peak_upper` the sum of part peaks (upper bound, reached only if
/// every part peaked simultaneously). Report whichever bound is conservative
/// for the question asked; capacity planning wants `peak_upper`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    /// Current value.
    pub value: i64,
    /// High-water mark: exact for an unmerged gauge, the provable lower
    /// bound after merging.
    pub peak: i64,
    /// Upper bound on the combined high-water mark after merging (sum of
    /// part peaks); equals `peak` for an unmerged gauge.
    pub peak_upper: i64,
}

/// Registry of named counters, gauges and sample streams.
///
/// Uses `BTreeMap` so iteration (and thus any report built from it) is in
/// deterministic name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    streams: BTreeMap<String, StreamStats>,
    /// Exact log-linear histograms for tail streams (nanosecond ticks):
    /// the authoritative source for p50/p99/p999, mergeable without loss.
    tails: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Read a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adjust a gauge by `delta`, tracking the peak.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        let g = self.gauges.entry(name.to_owned()).or_default();
        g.value += delta;
        if g.value > g.peak {
            g.peak = g.value;
        }
        g.peak_upper = g.peak_upper.max(g.peak);
    }

    /// Set a gauge to an absolute value, tracking the peak.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        let g = self.gauges.entry(name.to_owned()).or_default();
        g.value = value;
        if g.value > g.peak {
            g.peak = g.value;
        }
        g.peak_upper = g.peak_upper.max(g.peak);
    }

    /// Read a gauge (default zero).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Record an `f64` sample into the stream `name`.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.streams.entry(name.to_owned()).or_default().push(sample);
    }

    /// Read a stream's statistics (empty stats if never written).
    pub fn stream(&self, name: &str) -> StreamStats {
        self.streams.get(name).cloned().unwrap_or_default()
    }

    /// Record a sample into the stream `name` *and* its tail histogram —
    /// use for latency-style streams whose tail matters. The sample
    /// (seconds) lands in an exact log-linear [`Histogram`] (nanosecond
    /// ticks), the quantile source.
    pub fn observe_tail(&mut self, name: &str, sample: f64) {
        self.observe(name, sample);
        self.tails.entry(name.to_owned()).or_default().record(secs_to_ns(sample));
    }

    /// Exact quantile `q` (seconds) of a stream recorded via
    /// [`Metrics::observe_tail`] — bucket-resolution exact, within the
    /// histogram's `2^-g` relative error bound. `None` if never recorded
    /// that way.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.tails.get(name).and_then(|h| h.quantile(q)).map(ns_to_secs)
    }

    /// The exact p99 (seconds) for a stream recorded via
    /// [`Metrics::observe_tail`] (`None` if never recorded that way).
    pub fn p99(&self, name: &str) -> Option<f64> {
        self.quantile(name, 0.99)
    }

    /// The exact tail histogram for a stream (`None` if never recorded via
    /// [`Metrics::observe_tail`]). Values are nanosecond ticks.
    pub fn tail_hist(&self, name: &str) -> Option<&Histogram> {
        self.tails.get(name)
    }

    /// Iterate tail histograms in name order (the windowed scraper feeds
    /// these into the time series).
    pub fn tails(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.tails.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, Gauge)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate streams in name order.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &StreamStats)> {
        self.streams.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge another registry into this one (counters add, streams merge).
    /// Used to aggregate per-thread metrics from the threaded transport.
    ///
    /// Gauge semantics: values add. The true combined high-water mark is
    /// unknowable from two independently-tracked peaks — the parts need not
    /// have peaked at the same instant — so the merge keeps *both bounds*:
    /// `peak` becomes the provable lower bound (the largest single observed
    /// value, including the summed current value), and `peak_upper` becomes
    /// the sum of part peaks (the value reached if every part peaked
    /// simultaneously). A merged gauge therefore satisfies
    /// `peak <= true high-water mark <= peak_upper`.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, g) in &other.gauges {
            let mine = self.gauges.entry(k.clone()).or_default();
            // Sum the upper bounds *before* clobbering peaks: an unmerged
            // gauge carries peak_upper == peak.
            mine.peak_upper += g.peak_upper;
            mine.value += g.value;
            mine.peak = mine.peak.max(g.peak).max(mine.value);
            mine.peak_upper = mine.peak_upper.max(mine.peak);
        }
        for (k, s) in &other.streams {
            self.streams.entry(k.clone()).or_default().merge(s);
        }
        // Exact histograms merge losslessly: bucket counts add, so the
        // merged quantiles equal those of the concatenated sample set.
        for (k, h) in &other.tails {
            match self.tails.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.tails.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Reset everything (between benchmark iterations).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.streams.clear();
        self.tails.clear();
    }

    /// A serializable snapshot of the whole registry, entries in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| CounterEntry { name: k.clone(), value: *v })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, g)| GaugeEntry {
                    name: k.clone(),
                    value: g.value,
                    peak: g.peak,
                    peak_upper: g.peak_upper,
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|(k, s)| StreamEntry {
                    name: k.clone(),
                    count: s.count(),
                    mean: s.mean(),
                    min: s.min(),
                    max: s.max(),
                    p50: self.quantile(k, 0.50),
                    p99: self.p99(k),
                    p999: self.quantile(k, 0.999),
                })
                .collect(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Final value.
    pub value: i64,
    /// High-water mark (lower bound after merges — see [`Gauge`]).
    pub peak: i64,
    /// High-water upper bound after merges (see [`Gauge`]).
    pub peak_upper: i64,
}

/// One sample stream in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEntry {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Exact median (seconds), when recorded via
    /// [`Metrics::observe_tail`].
    #[serde(default)]
    pub p50: Option<f64>,
    /// Exact p99 (seconds), when recorded via [`Metrics::observe_tail`].
    /// Sourced from the log-linear histogram (bounded-error).
    pub p99: Option<f64>,
    /// Exact p999 (seconds), when recorded via [`Metrics::observe_tail`].
    #[serde(default)]
    pub p999: Option<f64>,
}

/// Serializable snapshot of a [`Metrics`] registry: what reports embed and
/// tools consume. Entry order is name order, so two snapshots of identical
/// registries are byte-identical when serialized.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, in name order.
    pub counters: Vec<CounterEntry>,
    /// Gauges, in name order.
    pub gauges: Vec<GaugeEntry>,
    /// Sample streams, in name order.
    pub streams: Vec<StreamEntry>,
}

impl MetricsSnapshot {
    /// Look up a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Look up a gauge entry.
    pub fn gauge(&self, name: &str) -> Option<&GaugeEntry> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Look up a stream entry.
    pub fn stream(&self, name: &str) -> Option<&StreamEntry> {
        self.streams.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("a", 2);
        m.inc("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let mut m = Metrics::new();
        m.gauge_add("mem", 10);
        m.gauge_add("mem", 5);
        m.gauge_add("mem", -12);
        let g = m.gauge("mem");
        assert_eq!(g.value, 3);
        assert_eq!(g.peak, 15);
    }

    #[test]
    fn gauge_set_tracks_peak() {
        let mut m = Metrics::new();
        m.gauge_set("q", 4);
        m.gauge_set("q", 9);
        m.gauge_set("q", 1);
        assert_eq!(m.gauge("q").value, 1);
        assert_eq!(m.gauge("q").peak, 9);
    }

    #[test]
    fn streams_observe() {
        let mut m = Metrics::new();
        m.observe("lat", 1.0);
        m.observe("lat", 3.0);
        let s = m.stream("lat");
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.inc("c", 1);
        a.gauge_add("g", 5);
        a.observe("s", 1.0);
        let mut b = Metrics::new();
        b.inc("c", 2);
        b.gauge_add("g", 7);
        b.observe("s", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g").value, 12);
        assert_eq!(a.gauge("g").peak, 12);
        assert_eq!(a.stream("s").count(), 2);
    }

    #[test]
    fn merge_tracks_both_peak_bounds() {
        // Two threads that each rose to 10 and fell back to 2: the combined
        // high-water mark is somewhere in [10, 20] depending on overlap.
        let mut a = Metrics::new();
        a.gauge_add("mem", 10);
        a.gauge_add("mem", -8);
        let mut b = Metrics::new();
        b.gauge_add("mem", 10);
        b.gauge_add("mem", -8);
        a.merge(&b);
        let g = a.gauge("mem");
        assert_eq!(g.value, 4);
        assert_eq!(g.peak, 10, "provable lower bound");
        assert_eq!(g.peak_upper, 20, "simultaneous-peak upper bound");
        // Merging a third part keeps accumulating the upper bound.
        let mut c = Metrics::new();
        c.gauge_add("mem", 5);
        a.merge(&c);
        assert_eq!(a.gauge("mem").peak_upper, 25);
        assert_eq!(a.gauge("mem").peak, 10);
    }

    #[test]
    fn unmerged_gauge_bounds_coincide() {
        let mut m = Metrics::new();
        m.gauge_add("q", 7);
        m.gauge_add("q", -3);
        m.gauge_set("q", 9);
        let g = m.gauge("q");
        assert_eq!(g.peak, 9);
        assert_eq!(g.peak_upper, 9);
    }

    #[test]
    fn snapshot_round_trips_and_indexes() {
        let mut m = Metrics::new();
        m.inc("puts", 3);
        m.gauge_add("mem", 11);
        m.observe_tail("lat", 2.0);
        m.observe_tail("lat", 4.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("puts"), 3);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("mem").unwrap().peak, 11);
        let s = snap.stream("lat").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(s.p99.is_some());
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // Snapshots written while streams still carried the P² estimate
        // (`p99_p2`) keep deserializing: unknown keys are ignored.
        let legacy = json.replace("\"p999\":", "\"p99_p2\":1.5,\"p999\":");
        assert_ne!(legacy, json);
        let back: MetricsSnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn observe_tail_tracks_exact_quantiles() {
        let mut m = Metrics::new();
        for i in 1..=1_000 {
            m.observe_tail("lat", i as f64 * 1e-3); // 1ms .. 1s
        }
        assert_eq!(m.stream("lat").count(), 1_000);
        let p99 = m.p99("lat").unwrap();
        let rel = (p99 - 0.990).abs() / 0.990;
        assert!(rel < 0.01, "p99 {p99} must be within the histogram error bound");
        let p50 = m.quantile("lat", 0.50).unwrap();
        assert!((p50 - 0.500).abs() / 0.500 < 0.01, "p50 {p50}");
        let p999 = m.quantile("lat", 0.999).unwrap();
        assert!((p999 - 0.999).abs() / 0.999 < 0.01, "p999 {p999}");
        assert_eq!(m.p99("missing"), None);
        // Plain observe creates no histogram.
        m.observe("plain", 1.0);
        assert_eq!(m.p99("plain"), None);
        assert!(m.tail_hist("plain").is_none());
    }

    #[test]
    fn merge_is_exact_for_tail_histograms() {
        let mut a = Metrics::new();
        let mut whole = Metrics::new();
        for i in 0..10 {
            a.observe_tail("x", i as f64);
            whole.observe_tail("x", i as f64);
        }
        let mut b = Metrics::new();
        for i in 0..100 {
            b.observe_tail("x", (i * 2) as f64);
            whole.observe_tail("x", (i * 2) as f64);
        }
        a.merge(&b);
        // The merged histogram equals the histogram of all samples — the
        // old P² merge could only keep one side.
        assert_eq!(a.tail_hist("x"), whole.tail_hist("x"));
        assert_eq!(a.p99("x"), whole.p99("x"));
        assert!(a.p99("x").unwrap() > 100.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The exact histogram quantile and the P² estimate agree on the
        /// same stream. P² carries no hard bound, so the tolerance is its
        /// empirical wobble on uniform samples plus the histogram's own
        /// sub-percent bucket error.
        #[test]
        fn exact_quantile_agrees_with_p2_oracle(
            base_us in 100u64..10_000,
            spread in 2u64..10,
            n in 400usize..1200,
        ) {
            let mut m = Metrics::default();
            let mut oracle = crate::quantile::P2Quantile::new(0.99);
            for i in 0..n {
                // Deterministic uniform-ish sweep over [base, spread*base) µs.
                let us = base_us + (i as u64 * 7919) % (base_us * (spread - 1));
                m.observe_tail("lat", us as f64 * 1e-6);
                oracle.push(us as f64 * 1e-6);
            }
            let exact = m.p99("lat").expect("exact p99 exists");
            let oracle = oracle.estimate().expect("P² estimate exists");
            let rel = (exact - oracle).abs() / oracle.max(1e-12);
            proptest::prop_assert!(rel < 0.15, "exact {exact} vs P² {oracle}: rel {rel}");
        }
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.inc("zeta", 1);
        m.inc("alpha", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
