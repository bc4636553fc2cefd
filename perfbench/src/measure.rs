//! Timed trials and the end-to-end metrics built from them.
//!
//! One trial: reference timing → setup (timed) → warm-up → timed window
//! (one clock read per round; each round starts when `step` returns).
//! Everything is timed in thread CPU time.
//! A run repeats trials until its time is up, cycling through the input
//! variants, and reports medians over them, scaled by [`scale`]. Every
//! trial of one variant simulates the same thing, so their outcomes must
//! be identical.

use std::time::Instant;

use cms_cluster::ClusterMetrics;
use cms_sim::Metrics;

use crate::hostref::{cpu_now, HostRef, NOMINAL_REF_S};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail_quantile};
use crate::workload::{
    guard, variant_seed, Config, Outcome, RoundObs, SetupTimes, Window, Workload,
};

/// One timed trial.
pub struct Trial {
    /// Which input variant it simulated.
    pub variant: usize,
    /// Raw reference time, seconds.
    pub ref_s: f64,
    /// Raw setup timings.
    pub setup: SetupTimes,
    /// Raw CPU-time median of the timed rounds, seconds.
    pub round_p50_s: f64,
    /// Raw CPU-time tail ([`round_tail`]) of the timed rounds, seconds.
    pub round_tail_s: f64,
    /// Raw CPU time of the whole timed window, seconds.
    pub timed_cpu_s: f64,
    /// What the timed window simulated.
    pub window: Window,
    /// The whole trial's simulated outcome.
    pub outcome: Outcome,
    /// The shape guard's verdict on the timed window.
    pub guard: Result<(), String>,
    /// Gateway metrics (cluster only), for the replay-equality gate.
    pub cluster_metrics: Option<ClusterMetrics>,
    /// Engine trace events emitted (traced trials only).
    pub trace_events: u64,
    /// The setup replay's products (traced trials only).
    pub built: Option<crate::layers::Built>,
}

impl Trial {
    /// Simulated stream-rounds per raw CPU second.
    #[must_use]
    pub fn raw_stream_rounds_per_s(&self) -> f64 {
        self.window.sum.active as f64 / self.timed_cpu_s
    }
}

/// Runs one trial. With `spans`, the trial is traced: engine tracing is
/// on (summary only) and every setup step and round is recorded as a
/// span.
///
/// # Errors
///
/// Describes a configuration or construction failure.
pub fn run_trial(
    w: Workload,
    seed: u64,
    variant: usize,
    href: &HostRef,
    replay: Option<&(ClusterMetrics, Vec<Metrics>)>,
    mut spans: Option<&mut Spans>,
) -> Result<Trial, String> {
    let ref_s = href.time_once();
    let setup_span = spans.as_deref_mut().map(|s| s.open("setup", None));
    let start = Instant::now();
    let cpu = cpu_now();
    let cfg = crate::workload::config(w, variant_seed(seed, variant)).map_err(|e| e.to_string())?;
    let model_solve_s = cpu_now() - cpu;
    let mut built = None;
    if let (Some(s), Some(parent)) = (spans.as_deref_mut(), setup_span) {
        s.push_closed("model.solve", Some(parent), start, model_solve_s);
        built = Some(crate::layers::replay_setup(&cfg, s, parent)?);
    }
    let new_start = Instant::now();
    let cpu = cpu_now();
    let mut engine = cfg.build().map_err(|e| e.to_string())?;
    let new_s = cpu_now() - cpu;
    if let (Some(s), Some(parent)) = (spans.as_deref_mut(), setup_span) {
        let name = if matches!(cfg, Config::Cluster(_)) {
            "cluster.new"
        } else {
            "sim.new"
        };
        s.push_closed(name, Some(parent), new_start, new_s);
        s.close(parent);
        engine.enable_tracing();
    }
    let setup = SetupTimes {
        model_solve_s,
        new_s,
    };

    let mut last = RoundObs::default();
    for _ in 0..w.warmup_rounds() {
        last = engine.step();
    }
    let timed = w.timed_rounds() as usize;
    let mut round_s = Vec::with_capacity(timed);
    let mut window = Window::default();
    let recon_before = engine.reconstructions();
    // Round spans of the first traced trial only: later trials add setup
    // spans (for the per-layer medians) without growing the file by a
    // window's worth of rounds each.
    let window_span = spans
        .as_deref_mut()
        .filter(|s| s.durations("round").is_empty())
        .map(|s| s.open("timed", None));
    let window_cpu = cpu_now();
    let mut prev_cpu = window_cpu;
    let mut prev_wall = Instant::now();
    for _ in 0..timed {
        last = engine.step();
        let now_cpu = cpu_now();
        round_s.push(now_cpu - prev_cpu);
        prev_cpu = now_cpu;
        if let (Some(s), Some(parent)) = (spans.as_deref_mut(), window_span) {
            let now = Instant::now();
            s.push_between("round", Some(parent), prev_wall, now);
            prev_wall = now;
        }
        window.add(&last);
    }
    if let (Some(s), Some(id)) = (spans, window_span) {
        s.close(id);
    }
    let timed_cpu_s = prev_cpu - window_cpu;
    window.reconstructions = engine.reconstructions() - recon_before;

    Ok(Trial {
        variant,
        ref_s,
        setup,
        round_p50_s: percentile(&round_s, 0.5),
        round_tail_s: percentile(&round_s, round_tail(w).0),
        timed_cpu_s,
        guard: guard(w, &window),
        outcome: engine.outcome(&last, replay, cfg.node().block_bytes),
        window,
        cluster_metrics: engine.cluster_metrics().cloned(),
        trace_events: engine.trace_events(),
        built,
    })
}

/// One metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The tail rule applied to `w`'s timed windows: which quantile, and
/// how many samples lie beyond it.
#[must_use]
pub fn round_tail(w: Workload) -> (f64, usize) {
    let n = w.timed_rounds() as usize;
    let q = tail_quantile(n);
    (q, n - (q * n as f64).ceil() as usize)
}

/// Host-time scale of a run to the nominal host: `NOMINAL_REF_S` over
/// the median reference time of its trials. One factor per run: a
/// single 20 ms timing is noisier than the trial it precedes.
#[must_use]
pub fn scale(trials: &[Trial]) -> f64 {
    NOMINAL_REF_S / median(&trials.iter().map(|t| t.ref_s).collect::<Vec<_>>())
}

/// The first trial's outcome of every variant the run simulated, in
/// variant order.
#[must_use]
pub fn variant_outcomes(trials: &[Trial]) -> Vec<&Outcome> {
    (0..crate::workload::VARIANTS)
        .filter_map(|v| trials.iter().find(|t| t.variant == v).map(|t| &t.outcome))
        .collect()
}

/// The run's simulation digest: FNV-1a over its variants' digests.
#[must_use]
pub fn sim_digest(trials: &[Trial]) -> u64 {
    let bytes: Vec<u8> = variant_outcomes(trials)
        .iter()
        .flat_map(|o| o.digest.to_le_bytes())
        .collect();
    crate::workload::fnv1a(&bytes)
}

/// The end-to-end metrics of a run, in report order. Host-time values
/// are medians over trials; simulated values are means over variants.
#[must_use]
pub fn end_to_end(trials: &[Trial]) -> Vec<Metric> {
    let k = scale(trials);
    let per = |f: &dyn Fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    let outcomes = variant_outcomes(trials);
    let mean = |f: &dyn Fn(&Outcome) -> f64| {
        outcomes.iter().map(|o| f(o)).sum::<f64>() / outcomes.len().max(1) as f64
    };
    let mut wait = cms_sim::Histogram::default();
    for o in &outcomes {
        for (bucket, &n) in o.wait.counts().iter().enumerate() {
            wait.record_n(cms_sim::Histogram::bucket_lower(bucket), n);
        }
    }
    let wait_q = tail_quantile(wait.total() as usize);
    vec![
        metric(
            "stream_rounds_per_s",
            per(&|t| t.raw_stream_rounds_per_s()) / k,
            "1/s",
        ),
        metric("round_ms_p50", per(&|t| t.round_p50_s) * k * 1e3, "ms"),
        metric("round_ms_tail", per(&|t| t.round_tail_s) * k * 1e3, "ms"),
        metric("setup_s", per(&|t| t.setup.total()) * k, "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric(
            "admitted_per_round",
            mean(&|o| o.admitted as f64 / o.rounds.max(1) as f64),
            "1/round",
        ),
        metric(
            "refused_share",
            mean(&|o| o.refusals as f64 / o.arrivals.max(1) as f64),
            "ratio",
        ),
        metric(
            "startup_wait_rounds_p50",
            wait.percentile(0.5) as f64,
            "rounds",
        ),
        metric(
            "startup_wait_rounds_tail",
            wait.percentile(wait_q) as f64,
            "rounds",
        ),
    ]
}
