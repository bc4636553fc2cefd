//! The four named workloads: their configurations, the engine they
//! drive, what one round observes, and the shape guard that checks each
//! timed window does the work the workload is named for.
//!
//! Every configuration is written out here rather than borrowed from the
//! experiment crates, so the yardstick cannot drift when those change.
//! All engines run with one service thread.

use cms_cluster::{ClusterConfig, ClusterMetrics, ClusterSim};
use cms_core::units::mib;
use cms_core::{CmsError, Scheme};
use cms_fault::FaultSchedule;
use cms_model::{tuned_point, CapacityPoint, ModelInput};
use cms_sim::{Histogram, Metrics, SimConfig, Simulator, TraceSpec};
use cms_trace::NullSink;

/// Admission scan window of every workload (`SimConfig::admission_scan`).
pub const ADMISSION_SCAN: usize = 64;
/// `giant` must keep at least this many streams active in every timed
/// round.
pub const GIANT_MIN_ACTIVE: u64 = 30_000;

/// Input variants a run cycles through: trial `i` simulates variant
/// `i % VARIANTS`. The host cost of a round depends on the inputs (which
/// disks fail, which clips are drawn), so a run that measured a single
/// variant would carry that variant's cost into its medians; cycling
/// averages it out while every input still derives from the run's seed.
pub const VARIANTS: usize = 4;

/// The seed of variant `v` of a run seeded `seed` (variant 0 is `seed`).
#[must_use]
pub fn variant_seed(seed: u64, v: usize) -> u64 {
    if v == 0 {
        seed
    } else {
        let mut state = seed ^ (v as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix(&mut state)
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 6 cell, saturated.
    PaperSaturated,
    /// Rotating single-disk failures with verification and rebuild.
    FaultCycle,
    /// The 1000-disk declustered stressor.
    Giant,
    /// The 8-node cluster with a node failing and returning on a cycle.
    ClusterChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSaturated,
        Workload::FaultCycle,
        Workload::Giant,
        Workload::ClusterChurn,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSaturated => "paper_saturated",
            Workload::FaultCycle => "fault_cycle",
            Workload::Giant => "giant",
            Workload::ClusterChurn => "cluster_churn",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untimed rounds stepped before each timed window.
    #[must_use]
    pub fn warmup_rounds(self) -> u64 {
        match self {
            Workload::PaperSaturated => 64,
            Workload::FaultCycle => 200,
            Workload::Giant => 96,
            Workload::ClusterChurn => 100,
        }
    }

    /// Rounds in each timed window. Fixed per workload, so the simulated
    /// statistics depend on the seed alone, never on host speed.
    #[must_use]
    pub fn timed_rounds(self) -> u64 {
        match self {
            Workload::PaperSaturated => 2048,
            Workload::FaultCycle => 3000,
            Workload::Giant => 128,
            Workload::ClusterChurn => 1200,
        }
    }

    /// Total rounds of one trial.
    #[must_use]
    pub fn total_rounds(self) -> u64 {
        self.warmup_rounds() + self.timed_rounds()
    }
}

/// Host-side timings of one setup, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the configuration: the `cms-model` solve for the paper
    /// cells, a struct literal elsewhere.
    pub model_solve_s: f64,
    /// `Simulator::new` or `ClusterSim::new`.
    pub new_s: f64,
}

impl SetupTimes {
    /// The workload's `setup_s`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.model_solve_s + self.new_s
    }
}

/// The engine a workload steps.
pub enum Engine {
    /// One server.
    Node(Box<Simulator>),
    /// The cluster gateway over its nodes.
    Cluster(Box<ClusterSim>),
}

/// A workload's full configuration for one seed.
#[derive(Clone)]
pub enum Config {
    /// A single-server run, with the model point it was solved from.
    Node(Box<SimConfig>, Option<CapacityPoint>),
    /// A cluster run.
    Cluster(Box<ClusterConfig>),
}

/// What one round did, in units every workload shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundObs {
    /// Streams active at the end of the round (all nodes): the
    /// stream-rounds the round served.
    pub active: u64,
    /// Requests that arrived (at the gateway, for the cluster).
    pub arrivals: u64,
    /// Requests admitted.
    pub admissions: u64,
    /// Blocks served by all disks.
    pub blocks: u64,
    /// Recovery reads issued.
    pub recovery_reads: u64,
    /// Background-rebuild reads issued.
    pub rebuild_reads: u64,
    /// Requests queued at the end of the round.
    pub pending: u64,
    /// Arrivals routed to a node (cluster only).
    pub routed: u64,
    /// Arrivals shed or unroutable (cluster only).
    pub shed: u64,
    /// Streams migrated off a failing node (cluster only).
    pub migrations: u64,
    /// Cross-node rebuild blocks shipped (cluster only).
    pub rebuild_blocks: u64,
}

/// Sums and extremes of [`RoundObs`] over a timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Rounds in the window.
    pub rounds: u64,
    /// Field-wise sums.
    pub sum: RoundObs,
    /// Smallest end-of-round backlog seen.
    pub min_pending: u64,
    /// Smallest active-stream count seen.
    pub min_active: u64,
    /// Reconstructions completed inside the window.
    pub reconstructions: u64,
}

impl Window {
    /// Folds one round in.
    pub fn add(&mut self, o: &RoundObs) {
        if self.rounds == 0 {
            self.min_pending = o.pending;
            self.min_active = o.active;
        }
        self.rounds += 1;
        self.min_pending = self.min_pending.min(o.pending);
        self.min_active = self.min_active.min(o.active);
        let s = &mut self.sum;
        s.active += o.active;
        s.arrivals += o.arrivals;
        s.admissions += o.admissions;
        s.blocks += o.blocks;
        s.recovery_reads += o.recovery_reads;
        s.rebuild_reads += o.rebuild_reads;
        s.pending += o.pending;
        s.routed += o.routed;
        s.shed += o.shed;
        s.migrations += o.migrations;
        s.rebuild_blocks += o.rebuild_blocks;
    }
}

/// The simulated result of one whole trial: what the gates, the digest
/// and the simulated metrics read.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rounds simulated.
    pub rounds: u64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests admitted (at a node).
    pub admitted: u64,
    /// Clips played to completion.
    pub completed: u64,
    /// Streams active at the end.
    pub active: u64,
    /// Requests queued at the end.
    pub pending: u64,
    /// Streams lost (second failure in a group, or no surviving replica).
    pub lost: u64,
    /// Streams moved off a failed node (cluster only): they leave their
    /// node without completing and are admitted again elsewhere.
    pub migrated: u64,
    /// Arrivals handed to a node (the gateway's routed count; equal to
    /// arrivals for a single server).
    pub routed: u64,
    /// Arrivals refused for good: cluster sheds plus unroutable.
    pub terminal_refusals: u64,
    /// Every refusal: degraded-mode refusals plus terminal refusals.
    pub refusals: u64,
    /// Playback hiccups.
    pub hiccups: u64,
    /// Reconstructions that failed byte-level verification.
    pub parity_mismatches: u64,
    /// Fetches dropped by refused service rounds.
    pub service_errors: u64,
    /// Blocks reconstructed.
    pub reconstructions: u64,
    /// Admission waits, log₂-bucketed.
    pub wait: Histogram,
    /// Mean per-disk busy time over the `b / r_p` round deadline.
    pub util_mean: f64,
    /// Peak per-disk queue depth.
    pub peak_queue: u64,
    /// FNV-1a hash of the final metrics' JSON.
    pub digest: u64,
}

impl Outcome {
    /// The failure count the pipeline's failed-share rule reads.
    #[must_use]
    pub fn ops_failed(&self) -> u64 {
        self.hiccups + self.lost + self.parity_mismatches + self.service_errors
    }
}

/// FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Mean busy-over-deadline across `metrics`' disks.
fn util_mean(metrics: &Metrics, block_bytes: u64) -> f64 {
    let deadline = cms_core::units::transfer_time(block_bytes, cms_core::units::mbps(1.5));
    let disks = metrics.disk_busy.len().max(1) as f64;
    let busy: f64 = metrics.disk_busy.iter().sum();
    busy / (disks * metrics.rounds.max(1) as f64 * deadline)
}

fn node_outcome(sim: &Simulator) -> Outcome {
    let m = sim.metrics();
    Outcome {
        rounds: m.rounds,
        arrivals: m.arrivals,
        admitted: m.admitted,
        completed: m.completed,
        active: sim.active_clients() as u64,
        pending: sim.pending_requests() as u64,
        lost: m.lost_streams,
        migrated: 0,
        routed: m.arrivals,
        terminal_refusals: 0,
        refusals: m.degraded_refusals,
        hiccups: m.hiccups,
        parity_mismatches: m.parity_mismatches,
        service_errors: m.service_errors,
        reconstructions: m.reconstructions,
        wait: m.wait_histogram.clone(),
        util_mean: util_mean(m, sim.config().block_bytes),
        peak_queue: u64::from(m.peak_disk_queue),
        // lint: allow(P001) the metrics are plain numbers; serialising them cannot fail
        digest: fnv1a(
            serde_json::to_string(m)
                .expect("metrics serialise")
                .as_bytes(),
        ),
    }
}

/// The cluster's outcome: gateway counters from the stepped run, node
/// metrics from `nodes` (an unstepped replay of the same configuration,
/// since a stepping caller cannot read node metrics).
fn cluster_outcome(
    cm: &ClusterMetrics,
    last: &RoundObs,
    nodes: &[Metrics],
    block_bytes: u64,
) -> Outcome {
    let mut wait = Histogram::default();
    for m in nodes {
        for (bucket, &n) in m.wait_histogram.counts().iter().enumerate() {
            wait.record_n(Histogram::bucket_lower(bucket), n);
        }
    }
    let mut text = serde_json::to_string(cm).unwrap_or_default();
    for m in nodes {
        text.push_str(&serde_json::to_string(m).unwrap_or_default());
    }
    let sum = |f: fn(&Metrics) -> u64| nodes.iter().map(f).sum::<u64>();
    let utils: f64 = nodes.iter().map(|m| util_mean(m, block_bytes)).sum();
    Outcome {
        rounds: cm.rounds,
        arrivals: cm.arrivals,
        admitted: cm.admissions,
        completed: cm.completions,
        active: last.active,
        pending: last.pending,
        lost: cm.lost_streams + cm.node_lost_streams,
        migrated: cm.migrations,
        routed: cm.routed,
        terminal_refusals: cm.cluster_refusals + cm.unroutable,
        refusals: cm.cluster_refusals + cm.unroutable + sum(|m| m.degraded_refusals),
        hiccups: cm.hiccups,
        parity_mismatches: sum(|m| m.parity_mismatches),
        service_errors: sum(|m| m.service_errors),
        reconstructions: sum(|m| m.reconstructions),
        wait,
        util_mean: utils / nodes.len().max(1) as f64,
        peak_queue: nodes
            .iter()
            .map(|m| u64::from(m.peak_disk_queue))
            .max()
            .unwrap_or(0),
        digest: fnv1a(text.as_bytes()),
    }
}

/// SplitMix64 step, for deriving a workload's schedule from its seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Figure 6 library: 1000 clips × 50 blocks at 3/2 parity overhead.
fn paper_input() -> ModelInput {
    ModelInput::sigmod96(mib(256)).with_storage_blocks(1000 * 50 * 3 / 2)
}

/// `fault_cycle`'s schedule: one data disk fails every 750 rounds,
/// rotating over the eight 4-disk clusters, starting just after warm-up;
/// the seed picks the first cluster and the disk within each. (The
/// fourth disk of a cluster holds its parity: losing it costs no
/// recovery read, so it is never picked.) A rebuild takes about 500
/// rounds, so at most one disk is ever down. The fixed period puts the
/// same number of failures, at the same offsets, in every seed's timed
/// window.
#[must_use]
pub fn fault_cycle_spec(seed: u64, warmup: u64, total: u64) -> String {
    let mut rng = seed ^ 0xFA17_C1C1E;
    let mut spec = String::new();
    let mut cluster = splitmix(&mut rng) % 8;
    for round in (warmup + 20..total).step_by(750) {
        let disk = cluster * 4 + splitmix(&mut rng) % 3;
        spec.push_str(&format!("@{round} fail {disk}\n"));
        cluster = (cluster + 1) % 8;
    }
    spec
}

/// `cluster_churn`'s schedule: every 300 rounds one node fails and
/// returns 100 rounds later, rotating over the nodes.
#[must_use]
pub fn cluster_churn_spec(seed: u64, warmup: u64, total: u64, nodes: u64) -> String {
    let mut node = seed % nodes;
    let mut spec = String::new();
    let mut round = warmup + 10;
    while round < total {
        spec.push_str(&format!(
            "@{round} fail-node {node}\n@{} repair-node {node}\n",
            round + 100
        ));
        round += 300;
        node = (node + 1) % nodes;
    }
    spec
}

/// Builds the workload's configuration for `seed`, solving the model
/// where the workload has one.
///
/// # Errors
///
/// Propagates model and fault-spec errors.
pub fn config(w: Workload, seed: u64) -> Result<Config, CmsError> {
    let total = w.total_rounds();
    let cfg = match w {
        Workload::PaperSaturated => {
            let point = tuned_point(Scheme::DeclusteredParity, &paper_input(), 4, seed)?;
            let mut cfg =
                SimConfig::sigmod96(Scheme::DeclusteredParity, &point, 32).with_threads(1);
            cfg.rounds = total;
            cfg.seed = seed;
            Config::Node(Box::new(cfg), Some(point))
        }
        Workload::FaultCycle => {
            let point = tuned_point(Scheme::PrefetchParityDisks, &paper_input(), 4, seed)?;
            let faults = FaultSchedule::parse(&fault_cycle_spec(seed, w.warmup_rounds(), total))?;
            let mut cfg = SimConfig::sigmod96(Scheme::PrefetchParityDisks, &point, 32)
                .with_threads(1)
                .with_verification()
                .with_rebuild()
                .with_faults(faults);
            cfg.arrival_rate = 8.0;
            cfg.rounds = total;
            cfg.seed = seed;
            Config::Node(Box::new(cfg), Some(point))
        }
        Workload::Giant => {
            // 1000 disks, p = 2 (the complete-pairs design), q = 52, f = 2:
            // nominal capacity d·(q − f) = 50 000 streams, saturated by
            // λ = 800 arrivals per round.
            let cfg = SimConfig {
                scheme: Scheme::DeclusteredParity,
                d: 1000,
                p: 2,
                m: 1,
                q: 52,
                f: 2,
                block_bytes: mib(1),
                catalog_clips: 1000,
                clip_len: 64,
                clip_len_spread: 0,
                arrival_rate: 800.0,
                zipf_theta: 0.0,
                rounds: total,
                failure: None,
                faults: None,
                degraded_admission: false,
                verify_parity: false,
                content_bytes: 512,
                seed,
                admission_scan: ADMISSION_SCAN,
                aging_limit: 100_000,
                auto_rebuild: false,
                threads: 1,
                trace: TraceSpec::off(),
            };
            Config::Node(Box::new(cfg), None)
        }
        Workload::ClusterChurn => {
            let node = SimConfig {
                scheme: Scheme::DeclusteredParity,
                d: 8,
                p: 4,
                m: 1,
                q: 8,
                f: 2,
                block_bytes: 1 << 20,
                catalog_clips: 1, // sized per node by the placement map
                clip_len: 20,
                clip_len_spread: 0,
                arrival_rate: 0.0, // the gateway generates all arrivals
                zipf_theta: 0.0,
                rounds: total,
                failure: None,
                faults: None,
                degraded_admission: false,
                verify_parity: false,
                content_bytes: 256,
                seed,
                admission_scan: ADMISSION_SCAN,
                aging_limit: 200,
                auto_rebuild: false,
                threads: 1,
                trace: TraceSpec::off(),
            };
            let nodes = 8;
            let faults =
                FaultSchedule::parse(&cluster_churn_spec(seed, w.warmup_rounds(), total, nodes))?;
            Config::Cluster(Box::new(ClusterConfig {
                nodes: nodes as u32,
                replication: 2,
                catalog_clips: 64,
                node,
                arrival_rate: 12.0,
                zipf_theta: 0.0,
                rounds: total,
                rebuild_rate: 64,
                rebuild_fanout: 2,
                faults: Some(faults),
                seed,
                threads: 1,
                trace: TraceSpec::off(),
            }))
        }
    };
    Ok(cfg)
}

impl Config {
    /// The node engine configuration (the per-node template for the
    /// cluster).
    #[must_use]
    pub fn node(&self) -> &SimConfig {
        match self {
            Config::Node(cfg, _) => cfg,
            Config::Cluster(cfg) => &cfg.node,
        }
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn build(&self) -> Result<Engine, CmsError> {
        Ok(match self {
            Config::Node(cfg, _) => Engine::Node(Box::new(Simulator::new((**cfg).clone())?)),
            Config::Cluster(cfg) => Engine::Cluster(Box::new(ClusterSim::new((**cfg).clone())?)),
        })
    }

    /// Node metrics of an unstepped run of the cluster configuration
    /// (empty for a single server).
    #[must_use]
    pub fn cluster_replay(&self) -> Option<(ClusterMetrics, Vec<Metrics>)> {
        match self {
            Config::Node(..) => None,
            Config::Cluster(cfg) => {
                let run = ClusterSim::new((**cfg).clone()).ok()?.run();
                Some((run.metrics, run.node_metrics))
            }
        }
    }
}

impl Engine {
    /// Steps one round.
    pub fn step(&mut self) -> RoundObs {
        match self {
            Engine::Node(sim) => {
                let r = sim.step_report();
                RoundObs {
                    active: r.active,
                    arrivals: r.arrivals,
                    admissions: r.admissions,
                    blocks: r.blocks_served,
                    recovery_reads: r.recovery_reads,
                    rebuild_reads: r.rebuild_reads,
                    pending: r.pending,
                    ..RoundObs::default()
                }
            }
            Engine::Cluster(sim) => {
                let r = sim.step();
                RoundObs {
                    active: r.active,
                    arrivals: r.arrivals,
                    admissions: r.admissions,
                    blocks: r.blocks_served,
                    pending: r.pending,
                    routed: r.routed,
                    shed: r.cluster_refusals + r.unroutable,
                    migrations: r.migrations,
                    rebuild_blocks: r.rebuild_blocks,
                    ..RoundObs::default()
                }
            }
        }
    }

    /// Reconstructions so far (single server; 0 for the cluster, whose
    /// nodes run healthy arrays).
    #[must_use]
    pub fn reconstructions(&self) -> u64 {
        match self {
            Engine::Node(sim) => sim.metrics().reconstructions,
            Engine::Cluster(_) => 0,
        }
    }

    /// The trial's outcome. `replay` supplies the cluster's node metrics;
    /// `block_bytes` is the node block size.
    #[must_use]
    pub fn outcome(
        &self,
        last: &RoundObs,
        replay: Option<&(ClusterMetrics, Vec<Metrics>)>,
        block_bytes: u64,
    ) -> Outcome {
        match self {
            Engine::Node(sim) => node_outcome(sim),
            Engine::Cluster(sim) => {
                let nodes = replay.map_or(&[][..], |(_, n)| n.as_slice());
                cluster_outcome(sim.metrics(), last, nodes, block_bytes)
            }
        }
    }

    /// Turns engine event tracing on (counting into the trace summary,
    /// writing nothing).
    pub fn enable_tracing(&mut self) {
        match self {
            Engine::Node(sim) => sim.set_trace_sink(Box::new(NullSink)),
            Engine::Cluster(sim) => sim.set_trace_sink(Box::new(NullSink)),
        }
    }

    /// Trace events emitted so far (0 with tracing off).
    #[must_use]
    pub fn trace_events(&self) -> u64 {
        match self {
            Engine::Node(sim) => sim.trace_summary().map_or(0, |s| s.events),
            Engine::Cluster(sim) => sim.trace_summary().map_or(0, |s| s.events),
        }
    }

    /// Gateway metrics (cluster only), for the replay-equality gate.
    #[must_use]
    pub fn cluster_metrics(&self) -> Option<&ClusterMetrics> {
        match self {
            Engine::Node(_) => None,
            Engine::Cluster(sim) => Some(sim.metrics()),
        }
    }
}

/// Checks that a timed window did the work its workload is named for.
///
/// # Errors
///
/// Describes the first missing kind of work.
pub fn guard(w: Workload, win: &Window) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{}: timed window {what}", w.name()));
    match w {
        Workload::PaperSaturated if win.min_pending < ADMISSION_SCAN as u64 => fail(&format!(
            "backlog fell to {} (< admission scan {ADMISSION_SCAN})",
            win.min_pending
        )),
        Workload::FaultCycle if win.sum.recovery_reads == 0 => fail("issued no recovery reads"),
        Workload::FaultCycle if win.reconstructions == 0 => fail("reconstructed no block"),
        Workload::FaultCycle if win.sum.rebuild_reads == 0 => fail("issued no rebuild reads"),
        Workload::Giant if win.min_active < GIANT_MIN_ACTIVE => fail(&format!(
            "active streams fell to {} (< {GIANT_MIN_ACTIVE})",
            win.min_active
        )),
        Workload::ClusterChurn if win.sum.migrations == 0 => fail("migrated no stream"),
        Workload::ClusterChurn if win.sum.rebuild_blocks == 0 => {
            fail("shipped no cross-node rebuild block")
        }
        _ => Ok(()),
    }
}

/// Checks a trial's outcome: nothing failed, no parity mismatch, and
/// requests and streams are conserved.
///
/// # Errors
///
/// Describes the first violated law.
pub fn check_outcome(o: &Outcome) -> Result<(), String> {
    if o.ops_failed() != 0 {
        return Err(format!(
            "ops_failed = {} (hiccups {}, lost {}, parity mismatches {}, service errors {})",
            o.ops_failed(),
            o.hiccups,
            o.lost,
            o.parity_mismatches,
            o.service_errors
        ));
    }
    if o.parity_mismatches != 0 {
        return Err(format!("parity.mismatches = {}", o.parity_mismatches));
    }
    if o.arrivals != o.routed + o.terminal_refusals {
        return Err(format!(
            "arrivals {} != routed {} + refused {}",
            o.arrivals, o.routed, o.terminal_refusals
        ));
    }
    // Every arrival ends exactly one way.
    if o.arrivals != o.completed + o.active + o.lost + o.pending + o.terminal_refusals {
        return Err(format!(
            "arrivals {} != completed {} + active {} + lost {} + pending {} + refused {}",
            o.arrivals, o.completed, o.active, o.lost, o.pending, o.terminal_refusals
        ));
    }
    // Without migration, admission splits the two halves exactly. (A
    // migrated stream may leave its node queued or playing, and the
    // public metrics do not say which, so the cluster keeps only the
    // whole-life law above.)
    if o.migrated == 0 && o.routed != o.admitted + o.pending {
        return Err(format!(
            "routed {} != admitted {} + pending {}",
            o.routed, o.admitted, o.pending
        ));
    }
    if o.migrated == 0 && o.admitted != o.completed + o.active + o.lost {
        return Err(format!(
            "admitted {} != completed {} + active {} + lost {}",
            o.admitted, o.completed, o.active, o.lost
        ));
    }
    Ok(())
}
