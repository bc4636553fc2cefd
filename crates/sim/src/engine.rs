//! The simulation engine: see the crate docs for the per-round pipeline.
//!
//! This root holds the simulator's state, its construction, the round
//! pipeline ([`Simulator::step_report`]) and the read-only accessors.
//! Each pipeline phase lives in its own module as a further
//! `impl Simulator` block (DESIGN.md §7 has the module map):
//!
//! - `faults` — round-start fault drain, fail/repair, stranded reads,
//!   stream loss and the background-rebuild state machine;
//! - `admit` — arrivals, the session API and the admission scan;
//! - `fetch` — per-stream fetch, recovery-read and rebuild-read issue;
//! - `serve` — EDF queue merge and per-disk C-SCAN service;
//! - `deliver` — delivery, reconstruction, verification and
//!   consumption.

mod admit;
mod deliver;
mod faults;
mod fetch;
mod serve;

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::table::{buffer_window, StreamTable};
use admit::{PausedClient, PendingPlay};
use cms_admission::{
    Admission, DeclusteredAdmission, DynamicAdmission, FlatAdmission, NonClusteredAdmission,
    PendingList, PrefetchParityDiskAdmission, StreamingRaidAdmission,
};
use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::units::transfer_time;
use cms_core::{ClipId, CmsError, DiskId, DiskParams, RequestId, Scheme};
use cms_disk::{DiskArray, TimingModel};
use cms_layout::{clustered, declustered, flat, BlockLocation, MaterializedLayout};
use cms_trace::{EventKind, TraceSink, TraceSummary, Tracer};
use cms_workload::{Catalog, ClipChoice, PoissonArrivals};
use deliver::VerifyScratch;
use faults::RebuildState;
use serve::{DiskRound, RoundScratch};
use std::collections::{BTreeMap, BTreeSet};

/// Marks an absent block in [`Fetch`]'s three block fields. Clip-block
/// indices and disk block numbers never reach it.
const NO_BLOCK: u64 = u64::MAX;

/// One scheduled disk read. Every read is copied through staging, the
/// EDF queue and delivery, so the record is kept to 72 bytes: the three
/// purposes are plain `u64`s with a sentinel rather than `Option`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fetch {
    client: RequestId,
    loc: BlockLocation,
    /// Round the block this read contributes to will be consumed.
    needed: u64,
    /// Globally increasing issue stamp. Each disk queue is kept ordered
    /// by `(needed, seq)`, which reproduces exactly the order the old
    /// per-round *stable* sort on `needed` produced: among equal
    /// deadlines, earlier-issued fetches serve first (DESIGN.md §7).
    seq: u64,
    /// Clip-block index this read delivers directly, or `NO_BLOCK`.
    serves: u64,
    /// Clip-block index whose reconstruction this read contributes to,
    /// or `NO_BLOCK`.
    recon_for: u64,
    /// Failed-disk block number this read helps rebuild onto the spare,
    /// or `NO_BLOCK` unless this is a background-rebuild read.
    rebuild_for: u64,
    /// The issuing stream's [`StreamTable`] slot at issue time
    /// (`u32::MAX` for rebuild reads, which have no stream). Delivery
    /// revalidates it against `client` — a completed stream's slot may
    /// have been reused by the time a stale recovery read lands.
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Fetch>() == 72);

impl Fetch {
    /// A read of `loc` for stream `(client, slot)`, due by round
    /// `needed`, with no purpose set; `push_fetch` stamps `seq`.
    fn read(client: RequestId, slot: u32, loc: BlockLocation, needed: u64) -> Self {
        let (serves, recon_for, rebuild_for) = (NO_BLOCK, NO_BLOCK, NO_BLOCK);
        Fetch { client, loc, needed, seq: 0, serves, recon_for, rebuild_for, slot }
    }

    /// The clip-block index this read delivers directly, if any.
    fn serves(&self) -> Option<u64> {
        (self.serves != NO_BLOCK).then_some(self.serves)
    }

    /// The clip-block index this read helps reconstruct, if any.
    fn recon_for(&self) -> Option<u64> {
        (self.recon_for != NO_BLOCK).then_some(self.recon_for)
    }

    /// The failed-disk block number this read helps rebuild, if any.
    fn rebuild_for(&self) -> Option<u64> {
        (self.rebuild_for != NO_BLOCK).then_some(self.rebuild_for)
    }
}

/// One live session as exported by [`Simulator::export_sessions`] — the
/// unit the cluster gateway migrates when a whole node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionExport {
    /// The node-local request id.
    pub request: RequestId,
    /// The clip being played (or queued).
    pub clip: ClipId,
    /// Blocks already consumed (active sessions) or the offset the
    /// request was queued at (pending sessions).
    pub offset: u64,
    /// Was the session actively playing, as opposed to still waiting in
    /// the pending queue?
    pub was_active: bool,
}

/// Engine-level reusable buffers for the per-round pipeline
/// (DESIGN.md §7). Each is `mem::take`n by the phase that needs it and
/// put back afterwards, so `&mut self` calls made while iterating a
/// buffer never alias it.
#[derive(Default)]
struct EngineScratch {
    /// Completed `(id, slot)` pairs collected by `consume_and_complete`.
    done: Vec<(RequestId, u32)>,
    /// Healthy group members in `issue_group_fetch`.
    healthy: Vec<(u64, BlockLocation)>,
    /// Down-disk block indices within one group-fetch window (at most
    /// one under `m = 1`; up to `m` while the group stays decodable).
    lost: Vec<u64>,
    /// Alive redundancy-shard locations of the window's group.
    redundancy: Vec<BlockLocation>,
    /// Reconstruction-read locations (recovery and rebuild paths).
    reads: Vec<BlockLocation>,
    /// Flattened `(failed block, surviving location)` pairs staged by
    /// `schedule_rebuild` before queue insertion.
    rebuild_batch: Vec<(u64, BlockLocation)>,
    verify: VerifyScratch,
}

/// The simulator: owns the layout, the admission controller, the disk
/// array and all client state. Construct with [`Simulator::new`], then
/// call [`Simulator::run`] (or [`Simulator::step`] for fine control).
pub struct Simulator {
    cfg: SimConfig,
    layout: MaterializedLayout,
    catalog: Catalog,
    admission: Box<dyn Admission + Send>,
    pending: PendingList<PendingPlay>,
    paused: BTreeMap<RequestId, PausedClient>,
    arrivals: PoissonArrivals,
    choice: ClipChoice,
    /// Active streams, stored as struct-of-arrays columns indexed by
    /// dense slot id (see the `table` module docs).
    table: StreamTable,
    array: DiskArray,
    queues: Vec<Vec<Fetch>>,
    /// Per-disk staging rows for fetches issued this round. `push_fetch`
    /// appends here; `flush_disk` sorts each row once and bulk-merges it
    /// into the disk's `(needed, seq)`-ordered queue — one O(n + k)
    /// merge per disk per round instead of k O(n) mid-vector inserts.
    incoming: Vec<Vec<Fetch>>,
    /// Issue stamp for the next fetch (see [`Fetch::seq`]).
    fetch_seq: u64,
    /// Per-disk round arenas, reused every round (DESIGN.md §7).
    round_scratch: Vec<RoundScratch>,
    /// Per-disk round summaries, reused every round.
    round_results: Vec<DiskRound>,
    /// Engine-level reusable buffers.
    scratch: EngineScratch,
    /// Resolved disk-service worker count (from `cfg.threads`, 0 = auto),
    /// clamped to the number of disks.
    workers: usize,
    round_duration: f64,
    t: u64,
    next_request: u64,
    /// Disks currently hard-failed. More than one entry means some
    /// parity groups may have lost two members; their streams are
    /// declared lost deterministically, never silently mis-served.
    failed: BTreeSet<DiskId>,
    /// Transiently down disks → first round they are back up. Data is
    /// intact (no rebuild); service is refused like a failure.
    transient_until: BTreeMap<DiskId, u64>,
    /// Slowed disks → first round their service factor resets to 1.
    slow_until: BTreeMap<DiskId, u64>,
    /// Next unapplied event in `cfg.faults` (round-sorted, so a cursor).
    fault_cursor: usize,
    /// Failed disks queued behind the single active rebuild slot. Empty
    /// whenever `rebuild` is `None`: a queued disk is promoted as soon
    /// as the slot frees.
    rebuild_pending: Vec<DiskId>,
    rebuild: Option<RebuildState>,
    metrics: Metrics,
    /// Event tracer, present when `cfg.trace` (or `set_trace_sink`)
    /// enabled tracing. All emission happens on the merge thread, in the
    /// same order the sequential engine would produce.
    tracer: Option<Tracer>,
}

/// Emits one trace event if tracing is enabled. A free function (not a
/// method) so call sites holding disjoint `&mut` borrows of other
/// simulator fields can still emit.
#[inline]
fn emit(tracer: &mut Option<Tracer>, round: u64, kind: EventKind) {
    if let Some(tr) = tracer.as_mut() {
        tr.emit(round, kind);
    }
}

impl Simulator {
    /// Builds a simulator: catalog → layout → admission controller →
    /// disk array.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and construction errors from
    /// any of the substrates.
    pub fn new(cfg: SimConfig) -> Result<Self, CmsError> {
        cfg.validate()?;
        // Start-disk jitter reproduces the paper's random disk(C)/row(C);
        // when the catalog barely fits the array, padding is shrunk until
        // the layout fits (halving down to none).
        let mut jitter = u64::from(cfg.d);
        loop {
            match Self::build(&cfg, jitter) {
                Err(CmsError::InfeasibleConfig { reason }) if jitter > 1 => {
                    let _ = reason;
                    jitter /= 2;
                }
                other => return other,
            }
        }
    }

    fn build(cfg: &SimConfig, jitter: u64) -> Result<Self, CmsError> {
        let cfg = cfg.clone();
        // Group span: the k = p − m data blocks fetched per group (p − 1
        // under the paper's single-parity schemes, where m = 1).
        let span = u64::from(cfg.p - cfg.m).max(1);
        // The declustered family places blocks by a parity group table,
        // built once here and shared by layout and admission.
        let pgt = if cfg.scheme.needs_pgt() { Some(build_pgt(cfg.d, cfg.p, cfg.seed)?) } else { None };
        // Catalog shape: dynamic reservation plays one super-clip per PGT
        // row; the group-fetching schemes start clips on group
        // boundaries.
        let (rows, align) = match &pgt {
            Some(pgt) if cfg.scheme == Scheme::DynamicReservation => (pgt.rows(), 1),
            _ if cfg.scheme.prefetches_groups() => (1, span),
            _ => (1, 1),
        };
        let catalog = Catalog::mixed(
            cfg.catalog_clips,
            cfg.clip_len,
            cfg.clip_len_spread,
            rows,
            align,
            jitter,
            cfg.seed,
        )?;
        let len = catalog.max_stream_len();
        let (layout, admission): (MaterializedLayout, Box<dyn Admission + Send>) =
            match (&pgt, cfg.scheme) {
                (Some(pgt), Scheme::DynamicReservation) => {
                    let layout = declustered::build_super_clips(pgt, len)?;
                    let deltas = (0..pgt.rows()).map(|r| pgt.row_deltas(r)).collect();
                    (layout, Box::new(DynamicAdmission::new(cfg.d, cfg.q, deltas)?))
                }
                (Some(pgt), _) => {
                    let layout = declustered::build(pgt, len)?;
                    let admission = DeclusteredAdmission::new(
                        cfg.d,
                        pgt.rows(),
                        cfg.q,
                        cfg.f.max(1),
                        pgt.lambda_max(),
                    )?;
                    (layout, Box::new(admission))
                }
                (None, Scheme::PrefetchFlat) => {
                    let layout = flat::build(cfg.d, cfg.p, len)?;
                    (layout, Box::new(FlatAdmission::new(cfg.d, cfg.p, cfg.q, cfg.f.max(1))?))
                }
                (None, scheme) => {
                    let layout = clustered::build_with_redundancy(scheme, cfg.d, cfg.p, cfg.m, len)?;
                    let (d, p, m, q) = (cfg.d, cfg.p, cfg.m, cfg.q);
                    let admission: Box<dyn Admission + Send> = match scheme {
                        Scheme::StreamingRaid => {
                            Box::new(StreamingRaidAdmission::with_redundancy(d, p, m, q)?)
                        }
                        Scheme::NonClustered => Box::new(NonClusteredAdmission::new(d, p, q)?),
                        _ => Box::new(PrefetchParityDiskAdmission::with_redundancy(d, p, m, q)?),
                    };
                    (layout, admission)
                }
            };
        let array = DiskArray::new(
            cfg.d,
            DiskParams::sigmod96(),
            TimingModel::worst_case(),
            cfg.block_bytes,
        )?;
        // The layout must fit the physical disks.
        for disk in 0..cfg.d {
            if layout.blocks_used(DiskId(disk)) > array.blocks_per_disk() {
                return Err(CmsError::InfeasibleConfig {
                    reason: format!(
                        "layout needs {} blocks on disk {disk}, capacity {}",
                        layout.blocks_used(DiskId(disk)),
                        array.blocks_per_disk()
                    ),
                });
            }
        }
        let round_duration = transfer_time(cfg.block_bytes, cms_core::units::mbps(1.5));
        let workers = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
        .clamp(1, cfg.d as usize);
        let metrics = Metrics {
            disk_busy: vec![0.0; cfg.d as usize],
            disk_blocks: vec![0; cfg.d as usize],
            disk_recovery_reads: vec![0; cfg.d as usize],
            disk_rebuild_reads: vec![0; cfg.d as usize],
            ..Metrics::default()
        };
        let tracer = cfg.trace.build().map_err(|e| {
            CmsError::invalid_params(format!("cannot open trace output: {e}"))
        })?;
        Ok(Simulator {
            arrivals: PoissonArrivals::new(cfg.arrival_rate, cfg.seed ^ 0xA11),
            choice: if cfg.zipf_theta > 0.0 {
                ClipChoice::zipf(cfg.catalog_clips, cfg.zipf_theta, cfg.seed ^ 0xC11)
            } else {
                ClipChoice::uniform(cfg.catalog_clips, cfg.seed ^ 0xC11)
            },
            queues: vec![Vec::new(); cfg.d as usize],
            incoming: vec![Vec::new(); cfg.d as usize],
            fetch_seq: 0,
            round_scratch: (0..cfg.d).map(|_| RoundScratch::with_budget(cfg.q as usize)).collect(),
            round_results: vec![DiskRound::default(); cfg.d as usize],
            scratch: EngineScratch::default(),
            workers,
            pending: PendingList::new(),
            paused: BTreeMap::new(),
            table: StreamTable::new(buffer_window(cfg.scheme, span)),
            layout,
            catalog,
            admission,
            array,
            round_duration,
            t: 0,
            next_request: 0,
            failed: BTreeSet::new(),
            transient_until: BTreeMap::new(),
            slow_until: BTreeMap::new(),
            fault_cursor: 0,
            rebuild_pending: Vec::new(),
            rebuild: None,
            metrics,
            tracer,
            cfg,
        })
    }

    /// Runs the configured number of rounds and returns the metrics.
    pub fn run(self) -> Metrics {
        self.run_summary().0
    }

    /// Runs the configured number of rounds and returns the metrics plus
    /// the trace summary (`None` when tracing is off). File sinks are
    /// flushed before this returns.
    pub fn run_summary(mut self) -> (Metrics, Option<TraceSummary>) {
        for _ in 0..self.cfg.rounds {
            self.step();
        }
        self.metrics.still_pending = self.pending.len() as u64;
        let summary = self.tracer.map(|mut tr| {
            tr.finish();
            tr.summary().clone()
        });
        (self.metrics, summary)
    }

    /// Installs a trace sink mid-stream (replacing whatever `cfg.trace`
    /// set up), e.g. a `RingSink` whose handle the caller keeps.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.tracer = Some(Tracer::new(sink));
    }

    /// The running trace summary, when tracing is enabled.
    #[must_use]
    pub fn trace_summary(&self) -> Option<&TraceSummary> {
        self.tracer.as_ref().map(Tracer::summary)
    }

    /// Flushes the trace sink without consuming the simulator (stepping
    /// callers that never reach [`Simulator::run_summary`]).
    pub fn flush_trace(&mut self) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.finish();
        }
    }

    /// Executes one round of the server pipeline.
    pub fn step(&mut self) {
        let _ = self.step_report();
    }

    /// Executes one round and returns what happened in it — the per-tick
    /// record an operator's dashboard would ingest.
    pub fn step_report(&mut self) -> crate::metrics::RoundReport {
        let before = (
            self.metrics.arrivals,
            self.metrics.admitted,
            self.metrics.completed,
            self.metrics.blocks_fetched,
            self.metrics.recovery_reads,
            self.metrics.hiccups,
            self.metrics.service_errors,
            self.metrics.rebuild_reads,
            self.metrics.late_serves,
            self.metrics.lost_streams,
            self.metrics.degraded_refusals,
        );
        let round = self.t;
        self.metrics.rounds += 1;
        self.apply_faults();
        // Snapshot the outage state *after* this round's fault events so
        // the report reflects what admission saw (`admit_from_head` runs
        // before anything else can change the down-set).
        let down_disks = (self.failed.len() + self.transient_until.len()) as u64;
        let degraded_cap = self.degraded_cap();
        self.generate_arrivals();
        self.admit_from_head();
        self.schedule_fetches();
        self.schedule_rebuild();
        self.execute_disks();
        self.consume_and_complete();
        self.admission.advance_round();
        self.t += 1;
        crate::metrics::RoundReport {
            round,
            arrivals: self.metrics.arrivals - before.0,
            admissions: self.metrics.admitted - before.1,
            completions: self.metrics.completed - before.2,
            blocks_served: self.metrics.blocks_fetched - before.3,
            recovery_reads: self.metrics.recovery_reads - before.4,
            hiccups: self.metrics.hiccups - before.5,
            service_errors: self.metrics.service_errors - before.6,
            rebuild_reads: self.metrics.rebuild_reads - before.7,
            late_serves: self.metrics.late_serves - before.8,
            lost_streams: self.metrics.lost_streams - before.9,
            degraded_refusals: self.metrics.degraded_refusals - before.10,
            active: self.table.len() as u64,
            pending: self.pending.len() as u64,
            down_disks,
            degraded_cap,
        }
    }

    /// Read-only access to the accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The resolved configuration this simulator runs (after
    /// construction-time padding adjustments).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The admission controller's fault-free capacity ceiling — the
    /// engine-side number the conformance harness cross-checks against
    /// the analytical model's clip count.
    #[must_use]
    pub fn nominal_capacity(&self) -> u64 {
        self.admission.nominal_capacity()
    }

    /// Blocks the materialized layout placed on `disk` (data and parity)
    /// — the amount a rebuild of that disk must reconstruct.
    #[must_use]
    pub fn layout_blocks_used(&self, disk: DiskId) -> u64 {
        self.layout.blocks_used(disk)
    }

    /// The current round.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Number of active playback sessions.
    #[must_use]
    pub fn active_clients(&self) -> usize {
        self.table.len()
    }

    /// Number of requests waiting in the pending list.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Number of paused sessions.
    #[must_use]
    pub fn paused_sessions(&self) -> usize {
        self.paused.len()
    }

    /// The lowest-numbered currently failed disk, if any (the only one,
    /// under the manual single-failure API).
    #[must_use]
    pub fn failed_disk(&self) -> Option<DiskId> {
        self.failed.iter().next().copied()
    }

    /// All currently failed disks, in id order.
    #[must_use]
    pub fn failed_disks(&self) -> Vec<DiskId> {
        self.failed.iter().copied().collect()
    }

    /// Rebuild progress as `(rebuilt, total)` blocks, if a rebuild is
    /// running.
    #[must_use]
    pub fn rebuild_progress(&self) -> Option<(u64, u64)> {
        self.rebuild.as_ref().map(|r| (r.rebuilt, r.total))
    }

    /// Snapshot of every live session for the cluster gateway: active
    /// playbacks and requests still waiting in the pending queue, in
    /// deterministic order (active in request-id order, then pending in
    /// queue order). Cold path — only called when this node's whole array
    /// goes dark and its streams must be re-homed.
    #[must_use]
    pub fn export_sessions(&self) -> Vec<SessionExport> {
        let mut out = Vec::with_capacity(self.table.len() + self.pending.len());
        for &(id, slot) in &self.table.order {
            if !self.table.live(id, slot) {
                continue;
            }
            out.push(SessionExport {
                request: id,
                clip: self.table.placement[slot as usize].id,
                offset: self.table.consumed[slot as usize],
                was_active: true,
            });
        }
        for i in 0..self.pending.len() {
            if let Some(p) = self.pending.get(i) {
                out.push(SessionExport {
                    request: p.id,
                    clip: p.payload.clip,
                    offset: p.payload.offset,
                    was_active: false,
                });
            }
        }
        out
    }

    /// Is `disk` unavailable for service (hard-failed or transiently
    /// down)? The array's status is the one record: every outage and
    /// return updates it before the engine's own `failed` and
    /// `transient_until` bookkeeping.
    fn is_down(&self, disk: DiskId) -> bool {
        self.array.is_down(disk)
    }

    /// The group span `k = p − m`: data blocks fetched per group, the
    /// long-round length, and the survivor count every reconstruction
    /// needs (`p − 1` under the paper's single-parity schemes).
    fn group_span(&self) -> u64 {
        u64::from(self.cfg.p - self.cfg.m).max(1)
    }
}

/// Builds the PGT for a declustered-family configuration.
fn build_pgt(d: u32, p: u32, seed: u64) -> Result<Pgt, CmsError> {
    let design = best_design(DesignRequest { v: d, k: p, allow_fallback: true, seed })
        .ok_or_else(|| CmsError::DesignUnavailable {
            reason: format!("no design for (d = {d}, p = {p})"),
        })?;
    Ok(Pgt::new(&design))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_model::{capacity, ModelInput};

    /// A small, fast configuration used by most tests.
    pub(super) fn small_cfg(scheme: Scheme) -> SimConfig {
        SimConfig {
            scheme,
            d: 8,
            p: 4,
            m: 1,
            q: 8,
            f: 2,
            block_bytes: 1 << 20, // generous round so q = 8 fits Eq. 1
            catalog_clips: 40,
            clip_len: 20,
            clip_len_spread: 0,
            arrival_rate: 3.0,
            zipf_theta: 0.0,
            rounds: 120,
            failure: None,
            faults: None,
            degraded_admission: false,
            verify_parity: false,
            content_bytes: 256,
            seed: 7,
            admission_scan: 64,
            aging_limit: 200,
            auto_rebuild: false,
            threads: 1,
            trace: cms_trace::TraceSpec::off(),
        }
    }

    #[test]
    fn fault_free_runs_are_clean_for_all_schemes() {
        for scheme in Scheme::ALL {
            let m = Simulator::new(small_cfg(scheme)).unwrap().run();
            assert!(m.admitted > 0, "{scheme}: nothing admitted");
            assert!(m.completed > 0, "{scheme}: nothing completed");
            assert_eq!(m.hiccups, 0, "{scheme}: fault-free run must not hiccup");
            assert_eq!(m.parity_mismatches, 0);
            assert!(
                m.peak_utilization <= 1.0 + 1e-9,
                "{scheme}: round deadline violated ({})",
                m.peak_utilization
            );
        }
    }

    #[test]
    fn consumption_matches_fetches_in_fault_free_runs() {
        let m = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap().run();
        // Every consumed block was fetched; completed clips consumed all
        // their blocks.
        assert!(m.blocks_consumed <= m.blocks_fetched);
        assert!(m.blocks_consumed >= m.completed * 20);
    }

    #[test]
    fn streaming_raid_reads_parity_even_when_healthy() {
        let m = Simulator::new(small_cfg(Scheme::StreamingRaid)).unwrap().run();
        // Group fetches include the parity block: fetched strictly exceeds
        // consumed even with full completion.
        assert!(m.blocks_fetched > m.blocks_consumed);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Simulator::new(small_cfg(Scheme::PrefetchFlat)).unwrap().run();
        let b = Simulator::new(small_cfg(Scheme::PrefetchFlat)).unwrap().run();
        assert_eq!(a, b);
        let mut cfg = small_cfg(Scheme::PrefetchFlat);
        cfg.seed = 8;
        let c = Simulator::new(cfg).unwrap().run();
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn paper_scale_configuration_runs() {
        // One full Figure 6 cell: d = 32, B = 256 MB, declustered, p = 4.
        let input = ModelInput::sigmod96(cms_core::units::mib(256));
        let point = capacity(Scheme::DeclusteredParity, &input, 4).unwrap();
        let mut cfg = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, 32);
        cfg.rounds = 120; // keep the unit test quick
        let m = Simulator::new(cfg).unwrap().run();
        assert!(m.admitted > 300, "expected saturation-level admissions");
        assert_eq!(m.hiccups, 0);
        assert!(m.peak_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn round_reports_sum_to_cumulative_metrics() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg = cfg.with_failure(40, DiskId(1));
        let mut sim = Simulator::new(cfg).unwrap();
        let mut arrivals = 0;
        let mut admissions = 0;
        let mut completions = 0;
        let mut blocks = 0;
        let mut recovery = 0;
        let mut service_errors = 0;
        let mut rebuild_reads = 0;
        let mut late_serves = 0;
        for expected_round in 0..100u64 {
            let r = sim.step_report();
            assert_eq!(r.round, expected_round);
            arrivals += r.arrivals;
            admissions += r.admissions;
            completions += r.completions;
            blocks += r.blocks_served;
            recovery += r.recovery_reads;
            service_errors += r.service_errors;
            rebuild_reads += r.rebuild_reads;
            late_serves += r.late_serves;
            assert_eq!(r.active as usize, sim.active_clients());
            assert_eq!(r.pending as usize, sim.pending_requests());
        }
        let m = sim.metrics();
        assert_eq!(arrivals, m.arrivals);
        assert_eq!(admissions, m.admitted);
        assert_eq!(completions, m.completed);
        assert_eq!(blocks, m.blocks_fetched);
        assert_eq!(recovery, m.recovery_reads);
        assert_eq!(service_errors, m.service_errors);
        assert_eq!(rebuild_reads, m.rebuild_reads);
        assert_eq!(late_serves, m.late_serves);
        assert!(recovery > 0, "failure must show up in some round report");
    }

    #[test]
    fn step_api_exposes_progress() {
        let mut sim = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap();
        assert_eq!(sim.now(), 0);
        sim.step();
        assert_eq!(sim.now(), 1);
        assert_eq!(sim.metrics().rounds, 1);
        for _ in 0..30 {
            sim.step();
        }
        assert!(sim.active_clients() > 0);
    }

    #[test]
    fn heterogeneous_clip_lengths_play_cleanly() {
        for scheme in Scheme::ALL {
            let mut cfg = small_cfg(scheme);
            cfg.clip_len_spread = 15; // clips of 20..=35 blocks
            cfg.rounds = 160;
            cfg = cfg.with_failure(60, DiskId(2)).with_verification();
            let m = Simulator::new(cfg).unwrap().run();
            assert!(m.completed > 0, "{scheme}");
            let allowed_hiccups = if scheme == Scheme::NonClustered { u64::MAX } else { 0 };
            assert!(m.hiccups <= allowed_hiccups, "{scheme}");
            assert_eq!(m.parity_mismatches, 0, "{scheme}");
        }
    }

    #[test]
    fn tracing_does_not_change_metrics() {
        let base = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap().run();
        let traced_cfg =
            small_cfg(Scheme::DeclusteredParity).with_trace(cms_trace::TraceSpec::null());
        let (traced, summary) = Simulator::new(traced_cfg).unwrap().run_summary();
        assert_eq!(base, traced, "tracing must be observation-only");
        let s = summary.expect("null trace still summarises");
        assert_eq!(s.arrivals, traced.arrivals);
        assert_eq!(s.admissions, traced.admitted);
        assert_eq!(s.completions, traced.completed);
        assert_eq!(s.recovery_reads, traced.recovery_reads);
        assert_eq!(s.hiccups, traced.hiccups);
        assert_eq!(s.late_serves, traced.late_serves);
        assert_eq!(s.blocks_served, traced.blocks_fetched);
        assert!(s.busy_us.total() > 0, "disk-serve events feed the busy histogram");
        assert!(s.queue_depth.total() > 0);
    }

    #[test]
    fn ring_sink_keeps_a_bounded_recent_window() {
        let mut sim = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap();
        let ring = cms_trace::RingSink::new(5);
        let handle = ring.handle();
        sim.set_trace_sink(Box::new(ring));
        for _ in 0..50 {
            sim.step();
        }
        let events = handle.events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.round >= 44), "only the last 5 rounds survive");
        assert!(events.windows(2).all(|w| w[0].round <= w[1].round), "rounds non-decreasing");
        assert_eq!(
            sim.trace_summary().map(|s| s.events > 0),
            Some(true),
            "summary runs alongside the ring"
        );
    }

    #[test]
    fn an_unbounded_round_budget_is_an_error_not_an_abort() {
        for scheme in Scheme::ALL {
            let cfg = SimConfig { q: u32::MAX, ..small_cfg(scheme) };
            let err = Simulator::new(cfg).err();
            assert!(matches!(err, Some(CmsError::InvalidParams { .. })), "{scheme}: {err:?}");
        }
    }

    #[test]
    fn an_overflowing_clip_length_is_an_error_not_a_panic() {
        for scheme in Scheme::ALL {
            let cfg = SimConfig { clip_len: u64::MAX, ..small_cfg(scheme) };
            let err = Simulator::new(cfg).err();
            assert!(matches!(err, Some(CmsError::InvalidParams { .. })), "{scheme}: {err:?}");
        }
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.block_bytes = 0;
        assert!(Simulator::new(cfg).is_err());
        let mut cfg = small_cfg(Scheme::StreamingRaid);
        cfg.p = 3; // 3 ∤ 8
        assert!(Simulator::new(cfg).is_err());
    }
}
