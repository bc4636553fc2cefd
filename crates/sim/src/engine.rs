//! The simulation engine: see the crate docs for the per-round pipeline.

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::table::{sv_get, sv_get_mut, sv_insert, sv_or_insert, sv_remove, StreamTable};
use cms_admission::{
    Admission, AdmitRequest, DeclusteredAdmission, DynamicAdmission, FlatAdmission,
    NonClusteredAdmission, PendingList, PrefetchParityDiskAdmission, StreamingRaidAdmission,
};
use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::units::transfer_time;
use cms_core::{ClipId, CmsError, DiskId, DiskParams, RequestId, Round, Scheme};
use cms_disk::{BlockRequest, Disk, DiskArray, RoundOutcome, ServiceContext, TimingModel};
use cms_fault::FaultEvent;
use cms_layout::{clustered, declustered, flat, BlockLocation, MaterializedLayout, StreamAddr};
use cms_parity::{codec_for, Block, ErasureCodec};
use cms_trace::{EventKind, TraceSink, TraceSummary, Tracer};
use cms_workload::{Catalog, ClipChoice, ClipPlacement, PoissonArrivals};
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled disk read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fetch {
    client: RequestId,
    clip: ClipId,
    loc: BlockLocation,
    /// Round the block this read contributes to will be consumed.
    needed: u64,
    /// Globally increasing issue stamp. Each disk queue is kept ordered
    /// by `(needed, seq)`, which reproduces exactly the order the old
    /// per-round *stable* sort on `needed` produced: among equal
    /// deadlines, earlier-issued fetches serve first (DESIGN.md §7).
    seq: u64,
    /// Clip-block index this read delivers directly, if any.
    serves: Option<u64>,
    /// Clip-block index whose reconstruction this read contributes to,
    /// if any.
    recon_for: Option<u64>,
    /// Failed-disk block number this read helps rebuild onto the spare,
    /// if this is a background-rebuild read.
    rebuild_for: Option<u64>,
    /// The issuing stream's [`StreamTable`] slot at issue time
    /// (`u32::MAX` for rebuild reads, which have no stream). Delivery
    /// revalidates it against `client` — a completed stream's slot may
    /// have been reused by the time a stale recovery read lands.
    slot: u32,
}

/// The locally-computed summary of draining one disk's queue for one
/// round. The variable-size payloads (served fetches, trace events) live
/// in the disk's [`RoundScratch`]; this struct carries only the `Copy`
/// accounting, so phase one can write results into a pre-sized slot
/// without touching the allocator.
#[derive(Clone, Copy, Default)]
struct DiskRound {
    /// Queue depth before the EDF drain (for `peak_disk_queue`).
    queue_len: u32,
    /// Service-time accounting; `None` when the queue was empty or the
    /// disk refused service.
    outcome: Option<RoundOutcome>,
    /// Fetches dropped because the disk refused service (failed disk or
    /// out-of-range block) — merged into `Metrics::service_errors`.
    dropped: u32,
}

/// Per-disk reusable buffers for the round hot path (DESIGN.md §7). One
/// arena per disk lives on the simulator; `execute_disks` hands each
/// worker the arenas of its disk slice, and the sequential merge drains
/// them in disk-ID order. Buffers are cleared, never shrunk: after
/// warm-up every round runs allocation-free.
#[derive(Default)]
struct RoundScratch {
    /// The fetches taken this round, in EDF order, awaiting delivery.
    served: Vec<Fetch>,
    /// Block requests handed to `Disk::service_round_with`.
    requests: Vec<BlockRequest>,
    /// Trace events produced while servicing this disk (empty when
    /// tracing is off). Buffered per disk and drained by the merge
    /// phase in disk-ID order — the trace-determinism contract.
    events: Vec<EventKind>,
    /// C-SCAN cylinder/order buffers reused inside the disk crate.
    disk: cms_disk::ServiceScratch,
}

impl RoundScratch {
    /// An arena pre-grown for rounds serving up to `budget` fetches, so
    /// even the first serviced round (and rebuild's deeper queues — the
    /// drain is still capped at the round budget) stays allocation-free
    /// inside the serve bracket.
    fn with_budget(budget: usize) -> Self {
        RoundScratch {
            served: Vec::with_capacity(budget),
            requests: Vec::with_capacity(budget),
            events: Vec::with_capacity(4),
            disk: cms_disk::ServiceScratch::with_budget(budget),
        }
    }
}

/// Drains up to `budget` fetches from one disk's queue
/// (earliest-deadline-first) and services them in C-SCAN order against
/// that disk's own head/busy state. Pure per-disk work: callable
/// concurrently for distinct disks.
///
/// The queue arrives already in EDF order — `push_fetch` maintains each
/// queue sorted by `(needed, seq)` — so the drain is a plain prefix
/// split, not a per-round sort.
// lint: hot
fn serve_disk(
    queue: &mut Vec<Fetch>,
    disk: &mut Disk,
    ctx: &ServiceContext,
    budget: usize,
    deadline: f64,
    collect_events: bool,
    scratch: &mut RoundScratch,
) -> DiskRound {
    scratch.served.clear();
    scratch.requests.clear();
    scratch.events.clear();
    if queue.is_empty() {
        return DiskRound::default();
    }
    // A slowed disk serves a proportionally smaller slice of its round
    // budget; its per-block busy time is scaled up by the same factor
    // inside the disk model. Pure per-disk state: thread-invariant.
    let budget = (budget / disk.slow_factor.max(1) as usize).max(1);
    debug_assert!(
        queue.windows(2).all(|w| (w[0].needed, w[0].seq) <= (w[1].needed, w[1].seq)),
        "disk queue must stay ordered by (needed, seq)"
    );
    let queue_len = queue.len() as u32;
    let take = queue.len().min(budget);
    if take == queue.len() {
        // Whole queue served (the common healthy-round case): swap the
        // buffers instead of copying every fetch. `served` was cleared
        // above, so the queue comes back empty with `served`'s capacity.
        std::mem::swap(&mut scratch.served, queue);
    } else {
        scratch.served.extend(queue.drain(..take));
    }
    scratch.requests.extend(scratch.served.iter().map(|f| BlockRequest {
        disk: disk.id,
        block_no: f.loc.block_no,
        clip: f.clip,
        reconstruction: f.recon_for.is_some(),
    }));
    match disk.service_round_with(ctx, &scratch.requests, deadline, &mut scratch.disk) {
        Ok(outcome) => {
            if collect_events {
                scratch.events.push(EventKind::DiskServe {
                    disk: disk.id.raw(),
                    blocks: outcome.blocks,
                    // Microseconds losslessly represent the worst-case
                    // timing model at round scale; the f64 is computed
                    // locally per disk, so the value is thread-invariant.
                    // Round to nearest: truncation would under-report
                    // every round's busy time by up to 1µs.
                    busy_us: (outcome.busy * 1e6).round() as u64,
                    queue: queue_len,
                });
            }
            DiskRound { queue_len, outcome: Some(outcome), dropped: 0 }
        }
        // The engine never routes fetches to a failed disk, so this arm
        // is unreachable for valid layouts — but a refused round must
        // drop its fetches and be counted, never panic the server loop.
        Err(_) => {
            let dropped = scratch.served.len() as u32;
            scratch.served.clear();
            if collect_events {
                scratch.events.push(EventKind::ServiceError { disk: disk.id.raw(), dropped });
            }
            DiskRound { queue_len, outcome: None, dropped }
        }
    }
}

/// A queued unit of playback: a clip, possibly resumed from an offset
/// (VCR resume re-queues the remainder of the clip for admission).
#[derive(Debug, Clone, Copy)]
struct PendingPlay {
    clip: ClipId,
    /// Blocks already consumed before the (re-)queueing.
    offset: u64,
    /// Disk holding the first block to play. The catalog and layout are
    /// immutable, so the admission probe's placement-derived fields are
    /// the same on every scan — computed once at enqueue time instead of
    /// per candidate per round. Meaningless (zero) when the remainder is
    /// empty; admission completes those without probing.
    start_disk: DiskId,
    /// PGT row of the first block to play (same precomputation).
    row: u32,
}

/// A paused session, parked outside admission (its bandwidth slot is
/// released; its buffer is dropped).
#[derive(Debug, Clone, Copy)]
struct PausedClient {
    clip: ClipId,
    consumed: u64,
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

/// Background rebuild of a failed disk onto a hot spare: blocks of the
/// failed disk are reconstructed in order from their surviving group
/// members, using only bandwidth left over after client traffic
/// (rebuild reads sort last in each disk's EDF queue).
#[derive(Debug)]
struct RebuildState {
    disk: DiskId,
    /// Next failed-disk block number to schedule.
    next_block: u64,
    /// Total blocks to rebuild (the disk's used prefix).
    total: u64,
    /// block_no → packed `(expected, pending)` source-read counter
    /// (see [`pack_pending`]) before the block is rebuilt.
    outstanding: BTreeMap<u64, u32>,
    /// Blocks fully rebuilt so far.
    rebuilt: u64,
}

/// Reusable state for the parity-verification path: the codecs, one
/// contiguous `k + m` shard pool (data first, then redundancy), the
/// reconstruction output and the expected content. All blocks keep their
/// capacity across verifications.
#[derive(Default)]
struct VerifyScratch {
    /// One codec from [`codec_for`] per `(k, m)` group geometry seen so
    /// far. A layout has at most a few (flat and clustered layouts end in
    /// a narrower terminal group when their block count is not a multiple
    /// of `k`), so alternating between them never rebuilds a codec.
    codecs: Vec<Box<dyn ErasureCodec + Send>>,
    /// Synthetic content pool: `k` data shards, then `m` redundancy.
    shards: Vec<Block>,
    rebuilt: Block,
    expect: Block,
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
    /// Failed disks queued behind the single active rebuild slot.
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

/// Packs a reconstruction/rebuild progress counter: the high 16 bits
/// hold how many survivor reads are still *expected to arrive* (strands
/// decrement it), the low 16 how many are still *pending* (deliveries
/// and strands both decrement it). A block decodes when pending hits
/// zero; it is lost when expected drops below the decode threshold `k`.
#[inline]
fn pack_pending(expected: u32, pending: u32) -> u32 {
    debug_assert!(expected <= 0xFFFF && pending <= 0xFFFF);
    (expected << 16) | pending
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
        let (catalog, layout) = match cfg.scheme {
            Scheme::DeclusteredParity => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    1,
                    jitter,
                    cfg.seed,
                )?;
                let layout = declustered::build(&pgt, catalog.max_stream_len())?;
                (catalog, layout)
            }
            Scheme::DynamicReservation => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    pgt.rows(),
                    1,
                    jitter,
                    cfg.seed,
                )?;
                let layout = declustered::build_super_clips(&pgt, catalog.max_stream_len())?;
                (catalog, layout)
            }
            Scheme::PrefetchParityDisks | Scheme::StreamingRaid | Scheme::NonClustered => {
                let align = if cfg.scheme == Scheme::NonClustered { 1 } else { span };
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    align,
                    jitter,
                    cfg.seed,
                )?;
                let layout = clustered::build_with_redundancy(
                    cfg.scheme,
                    cfg.d,
                    cfg.p,
                    cfg.m,
                    catalog.max_stream_len(),
                )?;
                (catalog, layout)
            }
            Scheme::PrefetchFlat => {
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    span,
                    jitter,
                    cfg.seed,
                )?;
                let layout = flat::build(cfg.d, cfg.p, catalog.max_stream_len())?;
                (catalog, layout)
            }
        };
        let admission: Box<dyn Admission + Send> = match cfg.scheme {
            Scheme::DeclusteredParity => {
                let pgt = layout.pgt().ok_or_else(|| CmsError::InfeasibleConfig {
                    reason: "declustered layout produced no parity group table".into(),
                })?;
                Box::new(DeclusteredAdmission::new(
                    cfg.d,
                    pgt.rows(),
                    cfg.q,
                    cfg.f.max(1),
                    pgt.lambda_max(),
                )?)
            }
            Scheme::DynamicReservation => {
                let pgt = layout.pgt().ok_or_else(|| CmsError::InfeasibleConfig {
                    reason: "dynamic-reservation layout produced no parity group table".into(),
                })?;
                let deltas = (0..pgt.rows()).map(|r| pgt.row_deltas(r)).collect();
                Box::new(DynamicAdmission::new(cfg.d, cfg.q, deltas)?)
            }
            Scheme::PrefetchParityDisks => Box::new(
                PrefetchParityDiskAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?,
            ),
            Scheme::StreamingRaid => {
                Box::new(StreamingRaidAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?)
            }
            Scheme::NonClustered => Box::new(NonClusteredAdmission::new(cfg.d, cfg.p, cfg.q)?),
            Scheme::PrefetchFlat => {
                Box::new(FlatAdmission::new(cfg.d, cfg.p, cfg.q, cfg.f.max(1))?)
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
            table: StreamTable::default(),
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

    /// Is `disk` unavailable for service (hard-failed or transiently
    /// down)?
    fn is_down(&self, disk: DiskId) -> bool {
        self.failed.contains(&disk) || self.transient_until.contains_key(&disk)
    }

    /// The group span `k = p − m`: data blocks fetched per group, the
    /// long-round length, and the survivor count every reconstruction
    /// needs (`p − 1` under the paper's single-parity schemes).
    fn group_span(&self) -> u64 {
        u64::from(self.cfg.p - self.cfg.m).max(1)
    }

    /// Builds the pending-queue payload for playing `clip` from `offset`,
    /// precomputing the admission probe's layout lookups (see
    /// [`PendingPlay`]).
    fn pending_play(&self, clip: ClipId, offset: u64) -> PendingPlay {
        let placement = self.catalog.placement(clip);
        let offset = offset.min(placement.len);
        if placement.len == offset {
            return PendingPlay { clip, offset, start_disk: DiskId(0), row: 0 };
        }
        let start = StreamAddr::new(placement.stream, placement.start_index + offset);
        PendingPlay {
            clip,
            offset,
            start_disk: self.layout.locate(start).disk,
            row: self.layout.row_of(start).unwrap_or(0),
        }
    }

    /// Submits an external playback request for `clip` (in addition to —
    /// or instead of, when `arrival_rate` is 0 — the generated workload).
    /// The request queues in the FIFO pending list like any arrival.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] for an unknown clip id.
    pub fn submit(&mut self, clip: ClipId) -> Result<RequestId, CmsError> {
        if clip.raw() >= self.cfg.catalog_clips {
            return Err(CmsError::out_of_bounds(format!(
                "{clip} outside catalog of {} clips",
                self.cfg.catalog_clips
            )));
        }
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), self.pending_play(clip, 0));
        self.metrics.arrivals += 1;
        emit(
            &mut self.tracer,
            self.t,
            EventKind::Arrival { request: id.raw(), clip: clip.raw() },
        );
        Ok(id)
    }

    /// Pauses an active session (VCR pause): its admission slot and
    /// buffer are released; [`Simulator::resume`] re-queues the remainder
    /// through admission control.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if `id` is not an active
    /// session.
    pub fn pause(&mut self, id: RequestId) -> Result<(), CmsError> {
        let Some(slot) = self.table.slot_of(id) else {
            return Err(CmsError::invalid_params(format!("{id} is not playing")));
        };
        let parked = PausedClient {
            clip: self.table.placement[slot as usize].id,
            consumed: self.table.consumed[slot as usize],
        };
        self.table.remove(id, slot);
        self.admission.remove(id);
        self.paused.insert(id, parked);
        Ok(())
    }

    /// Resumes a paused session: the remainder of the clip re-enters the
    /// pending list (aligned down to the scheme's group boundary, so a
    /// resumed viewer may re-watch up to `k−1` blocks, `k = p − m`).
    /// Returns the new request id tracking the resumed playback.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if `id` is not paused.
    pub fn resume(&mut self, id: RequestId) -> Result<RequestId, CmsError> {
        let Some(parked) = self.paused.remove(&id) else {
            return Err(CmsError::invalid_params(format!("{id} is not paused")));
        };
        let span = self.group_span();
        let offset = if self.cfg.scheme.prefetches_groups() {
            (parked.consumed / span) * span
        } else {
            parked.consumed
        };
        let new_id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending
            .push(new_id, Round(self.t), self.pending_play(parked.clip, offset));
        Ok(new_id)
    }

    /// Number of paused sessions.
    #[must_use]
    pub fn paused_sessions(&self) -> usize {
        self.paused.len()
    }

    /// Submits a playback request starting at block `offset` of `clip` —
    /// the migration entry point: a stream re-homed from a failed node
    /// resumes where it left off. The offset is aligned down to the
    /// scheme's group boundary exactly like [`Simulator::resume`], so a
    /// migrated viewer may re-watch up to `k−1` blocks, `k = p − m`.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] for an unknown clip id.
    pub fn submit_at(&mut self, clip: ClipId, offset: u64) -> Result<RequestId, CmsError> {
        if clip.raw() >= self.cfg.catalog_clips {
            return Err(CmsError::out_of_bounds(format!(
                "{clip} outside catalog of {} clips",
                self.cfg.catalog_clips
            )));
        }
        let span = self.group_span();
        let offset =
            if self.cfg.scheme.prefetches_groups() { (offset / span) * span } else { offset };
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), self.pending_play(clip, offset));
        self.metrics.arrivals += 1;
        emit(&mut self.tracer, self.t, EventKind::Arrival { request: id.raw(), clip: clip.raw() });
        Ok(id)
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

    /// Clears every live session — active, pending and paused — and all
    /// in-flight disk work: the node went dark, so nothing it was doing
    /// survives. Admission slots are released so a later repair starts
    /// from an empty server. Returns the number of active + pending
    /// sessions dropped (the streams the gateway must re-home or declare
    /// lost).
    pub fn evacuate(&mut self) -> usize {
        let dropped = self.table.len() + self.pending.len();
        for i in 0..self.table.order.len() {
            let (id, slot) = self.table.order[i];
            if self.table.live(id, slot) {
                self.admission.remove(id);
            }
        }
        self.table.clear();
        while self.pending.pop().is_some() {}
        self.paused.clear();
        for queue in &mut self.queues {
            queue.clear();
        }
        for staged in &mut self.incoming {
            staged.clear();
        }
        self.rebuild = None;
        self.rebuild_pending.clear();
        dropped
    }

    /// Fails `disk` immediately (single-failure model: a second failure
    /// while one is outstanding is rejected).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if a disk is already failed or
    /// the id is out of range.
    pub fn fail_disk(&mut self, disk: DiskId) -> Result<(), CmsError> {
        if disk.raw() >= self.cfg.d {
            return Err(CmsError::invalid_params("disk id out of range"));
        }
        if !self.failed.is_empty() {
            return Err(CmsError::invalid_params(
                "single-failure model: repair the failed disk first",
            ));
        }
        self.fail_now(disk);
        Ok(())
    }

    /// Repairs a failed disk.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if that disk is not failed.
    pub fn repair_disk(&mut self, disk: DiskId) -> Result<(), CmsError> {
        if !self.failed.contains(&disk) {
            return Err(CmsError::invalid_params(format!("{disk} is not failed")));
        }
        self.repair_now(disk);
        Ok(())
    }

    /// Rebuild progress as `(rebuilt, total)` blocks, if a rebuild is
    /// running.
    #[must_use]
    pub fn rebuild_progress(&self) -> Option<(u64, u64)> {
        self.rebuild.as_ref().map(|r| (r.rebuilt, r.total))
    }

    /// Feeds the background rebuild: keeps a bounded window of failed-disk
    /// blocks in flight, each rebuilt by reading its surviving group
    /// members at the lowest priority.
    fn schedule_rebuild(&mut self) {
        let Some(rb) = &mut self.rebuild else { return };
        let window = 2 * self.cfg.d as usize;
        let failed = rb.disk;
        // Stage the reads first (borrow juggling: layout is immutable,
        // queues are mutated after) in the flat reusable batch — one
        // `(failed block, surviving location)` pair per read, no nested
        // per-block vectors.
        let mut batch = std::mem::take(&mut self.scratch.rebuild_batch);
        let mut reads = std::mem::take(&mut self.scratch.reads);
        batch.clear();
        while rb.outstanding.len() < window && rb.next_block < rb.total {
            let block_no = rb.next_block;
            rb.next_block += 1;
            reads.clear();
            match self.layout.slot(failed, block_no) {
                cms_layout::Slot::Free => {}
                cms_layout::Slot::Data(addr) => {
                    self.layout.reconstruction_reads_into(addr, &mut reads);
                }
                cms_layout::Slot::Parity(gid) => {
                    let g = self.layout.group(gid);
                    reads.extend(g.data.iter().map(|&a| self.layout.locate(a)));
                    // Sibling redundancy shards double as extra sources
                    // (`m ≥ 2`); the shard being rebuilt is excluded.
                    reads.extend(g.redundancy_blocks().filter(|l| l.disk != failed));
                }
            }
            if reads.is_empty() {
                // Unused slot: nothing to copy.
                rb.rebuilt += 1;
                self.metrics.rebuilt_blocks += 1;
                continue;
            }
            let total = reads.len();
            reads.retain(|l| {
                !self.failed.contains(&l.disk) && !self.transient_until.contains_key(&l.disk)
            });
            if total - reads.len() >= self.cfg.m as usize {
                // Further outages removed more sources than the code's
                // `m − 1` spare-shard slack can stand: the rebuild
                // completes around the hole, which is counted — the
                // affected groups' streams were already declared lost
                // when those disks went down.
                rb.rebuilt += 1;
                self.metrics.unrecoverable_blocks += 1;
                continue;
            }
            let n = reads.len() as u32;
            rb.outstanding.insert(block_no, pack_pending(n, n));
            batch.extend(reads.iter().map(|&loc| (block_no, loc)));
        }
        for &(block_no, loc) in &batch {
            debug_assert!(!self.is_down(loc.disk), "rebuild read routed to a down disk");
            self.metrics.rebuild_reads += 1;
            self.metrics.disk_rebuild_reads[loc.disk.idx()] += 1;
            self.push_fetch(Fetch {
                client: RequestId(u64::MAX),
                clip: ClipId(u64::MAX),
                loc,
                needed: u64::MAX, // lowest EDF priority: slack only
                seq: 0, // stamped by push_fetch
                serves: None,
                recon_for: None,
                rebuild_for: Some(block_no),
                slot: u32::MAX, // no stream
            });
        }
        self.scratch.rebuild_batch = batch;
        self.scratch.reads = reads;
        if let Some(rb) = &self.rebuild {
            let (rebuilt, total) = (rb.rebuilt, rb.total);
            emit(&mut self.tracer, self.t, EventKind::RebuildProgress { rebuilt, total });
        }
        self.check_rebuild_complete();
    }

    fn check_rebuild_complete(&mut self) {
        let done = self
            .rebuild
            .as_ref()
            .is_some_and(|rb| rb.rebuilt == rb.total && rb.outstanding.is_empty());
        if done {
            let Some(rb) = self.rebuild.take() else { return };
            // The spare now holds the full contents: the array is whole
            // again (modeled as the failed slot returning to service).
            if self.array.repair(rb.disk).is_err() {
                self.metrics.service_errors += 1;
            }
            self.failed.remove(&rb.disk);
            self.metrics.rebuild_completed_round = Some(self.t);
            emit(
                &mut self.tracer,
                self.t,
                EventKind::RebuildComplete { disk: rb.disk.raw() },
            );
            self.start_next_rebuild();
        }
    }

    /// Promotes the next failed disk waiting for the single rebuild slot.
    fn start_next_rebuild(&mut self) {
        while self.rebuild.is_none() && !self.rebuild_pending.is_empty() {
            let disk = self.rebuild_pending.remove(0);
            if !self.failed.contains(&disk) {
                continue; // repaired while waiting
            }
            self.rebuild = Some(RebuildState {
                disk,
                next_block: 0,
                total: self.layout.blocks_used(disk),
                outstanding: BTreeMap::new(),
                rebuilt: 0,
            });
        }
    }

    fn fail_now(&mut self, disk: DiskId) {
        if self.array.fail(disk).is_err() {
            // Out-of-range ids are rejected by fail_disk / config
            // validation before reaching here; count, don't crash.
            self.metrics.service_errors += 1;
            return;
        }
        // A hard failure outranks (and ends) any transient window.
        self.transient_until.remove(&disk);
        if !self.failed.insert(disk) {
            return; // already failed
        }
        emit(&mut self.tracer, self.t, EventKind::DiskFailure { disk: disk.raw() });
        if self.cfg.auto_rebuild {
            if self.rebuild.is_none() {
                self.rebuild = Some(RebuildState {
                    disk,
                    next_block: 0,
                    total: self.layout.blocks_used(disk),
                    outstanding: BTreeMap::new(),
                    rebuilt: 0,
                });
            } else {
                self.rebuild_pending.push(disk);
            }
        }
        self.strand_queue(disk);
    }

    /// Returns `disk` to service: clears its failed state, cancels or
    /// dequeues its rebuild, and promotes the next pending rebuild.
    fn repair_now(&mut self, disk: DiskId) {
        if self.array.repair(disk).is_err() {
            self.metrics.service_errors += 1;
            return;
        }
        if !self.failed.remove(&disk) {
            return;
        }
        if self.rebuild.as_ref().is_some_and(|rb| rb.disk == disk) {
            self.rebuild = None;
        }
        self.rebuild_pending.retain(|&d| d != disk);
        emit(&mut self.tracer, self.t, EventKind::DiskRepair { disk: disk.raw() });
        self.start_next_rebuild();
    }

    /// Re-routes reads already queued on a disk that just went down:
    /// data reads fall back to reconstruction, reads that were
    /// themselves reconstruction inputs mean the stream lost a second
    /// group member, and rebuild source reads leave a counted hole.
    fn strand_queue(&mut self, disk: DiskId) {
        // Recovery reads scheduled by an earlier strand in the same
        // fault batch may still sit in this disk's staging row; merge
        // them in first so they strand in exactly the order the queue
        // would have held them.
        self.flush_disk(disk.idx());
        let stranded: Vec<Fetch> = std::mem::take(&mut self.queues[disk.idx()]);
        for fetch in stranded {
            if let Some(idx) = fetch.recon_for {
                // This read was reconstructing `idx` from survivors;
                // losing a survivor means one fewer shard will ever
                // arrive. Fatal iff the rest cannot reach the decode
                // threshold (always, under single-parity `m = 1`).
                self.strand_recon(fetch.client, fetch.slot, idx);
                continue;
            }
            if let Some(idx) = fetch.serves {
                self.schedule_recovery(fetch.client, fetch.slot, idx, fetch.needed);
            }
            if let Some(block_no) = fetch.rebuild_for {
                self.abandon_rebuild_block(block_no);
            }
        }
    }

    /// Deterministically terminates a stream whose due block became
    /// unreconstructable (a second failure in its parity group). The
    /// client is removed and counted — never silently mis-served.
    fn lose_stream(&mut self, id: RequestId, slot: u32, block: u64) {
        if self.table.live(id, slot) {
            self.table.remove(id, slot);
            self.admission.remove(id);
            self.metrics.lost_streams += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::StreamLost { request: id.raw(), block },
            );
        }
    }

    /// A queued survivor read reconstructing block `idx` of
    /// `(id, slot)` was stranded by a new outage: one fewer shard will
    /// ever arrive. The decode still completes if the remaining
    /// expected shards reach the threshold `k` (possible only with
    /// `m ≥ 2` spare redundancy); otherwise the stream is lost, exactly
    /// as the single-parity schemes always declared it.
    fn strand_recon(&mut self, id: RequestId, slot: u32, idx: u64) {
        if !self.table.live(id, slot) {
            return;
        }
        let Some(v) = sv_get(&self.table.recon_pending[slot as usize], idx) else {
            self.lose_stream(id, slot, idx);
            return;
        };
        // Decode threshold of *this* block's group (tail groups can be
        // narrower than the configured span).
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let k = self.layout.group(self.layout.group_id_of(addr)).data.len() as u32;
        let expected = (v >> 16) - 1;
        let pending = (v & 0xFFFF) - 1;
        if expected < k {
            self.lose_stream(id, slot, idx);
        } else if pending == 0 {
            // Every non-stranded survivor already arrived and they
            // suffice: the decode completes despite the strand.
            self.complete_reconstruction(id, slot, idx);
        } else if let Some(slot_v) =
            sv_get_mut(&mut self.table.recon_pending[slot as usize], idx)
        {
            *slot_v = pack_pending(expected, pending);
        }
    }

    /// Drops a rebuild block whose in-flight source reads were stranded
    /// by a further outage — unless enough expected source reads remain
    /// to decode it (`m ≥ 2` spare redundancy). Unrecoverable holes are
    /// counted, never silently filled.
    fn abandon_rebuild_block(&mut self, block_no: u64) {
        let Some(rb) = &mut self.rebuild else { return };
        let Some(&v) = rb.outstanding.get(&block_no) else { return };
        // Decode threshold of *this* block's group (tail groups can be
        // narrower than the configured span).
        let k = match self.layout.slot(rb.disk, block_no) {
            cms_layout::Slot::Free => 0,
            cms_layout::Slot::Data(addr) => {
                self.layout.group(self.layout.group_id_of(addr)).data.len() as u32
            }
            cms_layout::Slot::Parity(gid) => self.layout.group(gid).data.len() as u32,
        };
        let expected = (v >> 16) - 1;
        let pending = (v & 0xFFFF) - 1;
        if expected < k {
            rb.outstanding.remove(&block_no);
            rb.rebuilt += 1;
            self.metrics.unrecoverable_blocks += 1;
        } else if pending == 0 {
            rb.outstanding.remove(&block_no);
            rb.rebuilt += 1;
            self.metrics.rebuilt_blocks += 1;
            self.check_rebuild_complete();
        } else if let Some(slot_v) = rb.outstanding.get_mut(&block_no) {
            *slot_v = pack_pending(expected, pending);
        }
    }

    /// Round-start fault processing on the coordinating thread (so the
    /// whole round observes a settled array): expire transient and slow
    /// windows, apply the legacy single-failure scenario, then drain
    /// every scheduled event due this round, in schedule order.
    fn apply_faults(&mut self) {
        while let Some(disk) = self
            .transient_until
            .iter()
            .find(|&(_, &end)| end <= self.t)
            .map(|(&d, _)| d)
        {
            self.transient_until.remove(&disk);
            if self.array.clear_transient(disk).unwrap_or(false) {
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::DiskTransientEnd { disk: disk.raw() },
                );
            }
        }
        while let Some(disk) = self
            .slow_until
            .iter()
            .find(|&(_, &end)| end <= self.t)
            .map(|(&d, _)| d)
        {
            self.slow_until.remove(&disk);
            if self.array.set_slow_factor(disk, 1).is_ok() {
                emit(&mut self.tracer, self.t, EventKind::DiskSlowEnd { disk: disk.raw() });
            }
        }
        if let Some(fs) = self.cfg.failure {
            if self.t == fs.fail_round && self.failed.is_empty() {
                self.fail_now(fs.disk);
            }
            if let Some(repair) = fs.repair_round {
                if self.t == repair && self.failed.contains(&fs.disk) {
                    self.repair_now(fs.disk);
                }
            }
        }
        loop {
            let next = self
                .cfg
                .faults
                .as_ref()
                .and_then(|s| s.events().get(self.fault_cursor).copied());
            let Some(e) = next else { break };
            if e.round > self.t {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault_event(e.event);
        }
    }

    /// Applies one scheduled fault event. Inapplicable events (failing
    /// an already-failed disk, a transient window on a down disk) are
    /// deterministic no-ops, mirroring `FaultSchedule::check_consistency`.
    fn apply_fault_event(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Fail(disk) => {
                if !self.failed.contains(&disk) {
                    self.fail_now(disk);
                }
            }
            FaultEvent::Repair(disk) => {
                if self.failed.contains(&disk) {
                    self.repair_now(disk);
                }
            }
            FaultEvent::Transient { disk, rounds } => {
                if !self.is_down(disk) && self.array.set_transient(disk).unwrap_or(false) {
                    self.transient_until.insert(disk, self.t.saturating_add(rounds));
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DiskTransient { disk: disk.raw(), rounds },
                    );
                    self.strand_queue(disk);
                }
            }
            FaultEvent::SlowDisk { disk, factor, rounds } => {
                let factor = factor.max(1);
                if self.array.set_slow_factor(disk, factor).is_ok() {
                    self.slow_until.insert(disk, self.t.saturating_add(rounds));
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DiskSlow { disk: disk.raw(), factor, rounds },
                    );
                }
            }
            // Node-scoped events never reach a single-server engine:
            // SimConfig::validate rejects them up front, and the cluster
            // gateway consumes them itself. Deterministic no-op either way.
            FaultEvent::FailNode(_) | FaultEvent::RepairNode(_) => {}
        }
    }

    fn generate_arrivals(&mut self) {
        for _ in 0..self.arrivals.next_round() {
            let clip = self.choice.next_clip();
            let id = RequestId(self.next_request);
            self.next_request += 1;
            self.pending.push(id, Round(self.t), self.pending_play(clip, 0));
            self.metrics.arrivals += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::Arrival { request: id.raw(), clip: clip.raw() },
            );
        }
    }

    /// Admission with bounded FIFO bypass (cf. ORS96): requests are
    /// considered in arrival order; a request whose resources are free is
    /// admitted even if earlier ones are blocked — *unless* the head has
    /// aged past [`SimConfig::aging_limit`], in which case nothing may
    /// overtake it. Bypass keeps the disks busy; the aging guard keeps
    /// the policy starvation-free (a head's wait is bounded by the limit
    /// plus one clip duration).
    /// The maximum active-stream count while degraded, when enforcement
    /// is on and any disk is down: the scheme's fault-free capacity
    /// ([`Admission::nominal_capacity`]) scaled by the surviving-disk
    /// fraction — the lost disk's share of the array is withheld so
    /// survivors keep contingency headroom for its recovery reads — and
    /// zero for NonClustered (no redundancy to serve through an outage)
    /// or more concurrent outages than the code's `m` redundancy shards
    /// are designed to tolerate.
    fn degraded_cap(&self) -> Option<u64> {
        if !self.cfg.degraded_admission {
            return None;
        }
        let down = (self.failed.len() + self.transient_until.len()) as u64;
        if down == 0 {
            return None;
        }
        if self.cfg.scheme == Scheme::NonClustered || down > u64::from(self.cfg.m) {
            return Some(0);
        }
        let healthy = u64::from(self.cfg.d).saturating_sub(down);
        Some(self.admission.nominal_capacity() * healthy / u64::from(self.cfg.d))
    }

    fn admit_from_head(&mut self) {
        let degraded_cap = self.degraded_cap();
        let head_aged = self
            .pending
            .head_wait(Round(self.t))
            .is_some_and(|w| w >= self.cfg.aging_limit);
        let scan = if head_aged { 1 } else { self.cfg.admission_scan.max(1) };
        let mut idx = 0usize;
        let mut inspected = 0usize;
        while inspected < scan {
            let Some(cand) = self.pending.get(idx) else { break };
            inspected += 1;
            let cand_id = cand.id;
            let cand_clip = cand.payload.clip;
            let mut placement = self.catalog.placement(cand.payload.clip);
            // A resumed session plays only the remainder of the clip.
            let offset = cand.payload.offset.min(placement.len);
            placement.start_index += offset;
            placement.len -= offset;
            if placement.len == 0 {
                // Paused at the very end: nothing left to play.
                self.pending.remove_at(idx);
                self.metrics.completed += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Completion { request: cand_id.raw() },
                );
                continue;
            }
            if let Some(cap) = degraded_cap {
                if self.table.len() as u64 >= cap {
                    // Degraded mode: the cap is reached; refuse this
                    // round's remaining candidates (they stay queued)
                    // and count one refusal for the blocked head.
                    self.metrics.degraded_refusals += 1;
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DegradedRefusal {
                            request: cand_id.raw(),
                            clip: cand_clip.raw(),
                        },
                    );
                    break;
                }
            }
            // `start_disk` and `row` were precomputed when the candidate
            // was enqueued — the layout is immutable, so the probe fields
            // never change between scans.
            let req = AdmitRequest {
                id: cand.id,
                stream: placement.stream,
                start_index: placement.start_index,
                start_disk: cand.payload.start_disk,
                row: cand.payload.row,
                len: placement.len,
            };
            // Allocation-free preview first: a rejection costs one table
            // probe instead of `try_admit`'s error-message formatting.
            // The trace event carries no reason string, so skipping the
            // full call is observationally identical.
            if !self.admission.check(&req) || self.admission.try_admit(req).is_err() {
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Rejection { request: cand_id.raw(), clip: cand_clip.raw() },
                );
                idx += 1;
                continue;
            }
            let Some(cand) = self.pending.remove_at(idx) else {
                // The admitted candidate was at idx an instant ago; an
                // empty slot here means the queue shrank underneath us —
                // stop scanning rather than panic mid-round.
                break;
            };
            // A successful admission may have freed nothing, but it does
            // not invalidate earlier rejections this round; keep scanning
            // from the same position (the next element shifted into it)
            // without charging another inspection for the admit itself.
            inspected -= 1;
            let wait = self.t - cand.arrived.raw();
            self.metrics.admitted += 1;
            self.metrics.wait_rounds_total += wait;
            self.metrics.wait_rounds_max = self.metrics.wait_rounds_max.max(wait);
            self.metrics.record_wait(wait);
            emit(
                &mut self.tracer,
                self.t,
                EventKind::Admission { request: cand.id.raw(), clip: cand_clip.raw(), wait },
            );
            let span = self.group_span();
            self.table.admit(cand.id, placement, self.t, self.t.div_ceil(span) * span);
            self.metrics.peak_active = self.metrics.peak_active.max(self.table.len() as u64);
        }
        // One bulk merge of this round's admissions into iteration order
        // (the scan visits the id-sorted pending queue, so staged ids
        // are ascending; bypass means they may interleave with ids
        // admitted in earlier rounds).
        self.table.flush_staged();
    }

    // lint: hot
    fn schedule_fetches(&mut self) {
        let span = self.group_span();
        let scheme = self.cfg.scheme;
        // Walk the id-sorted order index directly — the same ascending-id
        // visit order the old map snapshot produced, with no snapshot
        // vector. `lose_stream` mid-walk only tombstones entries (never
        // reorders or grows `order`), so positional iteration is stable;
        // the liveness recheck after each issue mirrors the old map
        // re-lookups.
        for at in 0..self.table.order.len() {
            let (id, slot) = self.table.order[at];
            if !self.table.live(id, slot) {
                continue;
            }
            let s = slot as usize;
            let (placement, admitted_at, first_boundary, issued) = (
                self.table.placement[s],
                self.table.admitted_at[s],
                self.table.first_boundary[s],
                self.table.issued[s],
            );
            if issued >= placement.len {
                continue;
            }
            match scheme {
                Scheme::DeclusteredParity
                | Scheme::DynamicReservation
                | Scheme::NonClustered => {
                    // Double-buffered single-block retrieval: one block per
                    // round, in lock-step with admission's rotation model.
                    if self.t < admitted_at + issued {
                        continue;
                    }
                    let idx = issued;
                    let needed = self.table.consume_round(slot, idx, scheme, span);
                    self.issue_data_fetch(id, slot, idx, needed);
                    if self.table.live(id, slot) {
                        self.table.issued[s] = idx + 1;
                    }
                }
                Scheme::PrefetchParityDisks | Scheme::PrefetchFlat => {
                    // Staggered group fetch every p−1 rounds.
                    if !(self.t - admitted_at).is_multiple_of(span) {
                        continue;
                    }
                    let group_end = (issued + span).min(placement.len);
                    self.issue_group_fetch(id, slot, issued, group_end, false);
                    if self.table.live(id, slot) {
                        self.table.issued[s] = group_end;
                    }
                }
                Scheme::StreamingRaid => {
                    // Lock-step long rounds: whole group plus its parity.
                    if self.t < first_boundary || !(self.t - first_boundary).is_multiple_of(span) {
                        continue;
                    }
                    let group_end = (issued + span).min(placement.len);
                    self.issue_group_fetch(id, slot, issued, group_end, true);
                    if self.table.live(id, slot) {
                        self.table.issued[s] = group_end;
                    }
                }
            }
        }
    }

    /// Issues the single-block fetch for `idx`, or recovery reads if its
    /// disk is down.
    // lint: hot
    fn issue_data_fetch(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let clip = placement.id;
        let loc = self.layout.locate(addr);
        if self.is_down(loc.disk) {
            self.schedule_recovery(id, slot, idx, needed);
        } else {
            self.push_fetch(Fetch {
                client: id,
                clip,
                loc,
                needed,
                seq: 0, // stamped by push_fetch
                serves: Some(idx),
                recon_for: None,
                rebuild_for: None,
                slot,
            });
        }
    }

    /// Issues a whole-group fetch for blocks `start..end` of the clip.
    /// With `with_parity`, also reads the group's redundancy blocks
    /// (streaming RAID). Reads on a failed disk are replaced by the
    /// pre-fetching recovery rule: the alive redundancy shards
    /// substitute, and the sibling reads of the same fetch double as
    /// reconstruction inputs. Up to `m` window blocks may be down at
    /// once; the stream is lost only when the alive survivors drop below
    /// the decode threshold `k`.
    // lint: hot
    fn issue_group_fetch(&mut self, id: RequestId, slot: u32, start: u64, end: u64, with_parity: bool) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let clip = placement.id;
        let scheme = self.cfg.scheme;
        let span = self.group_span();

        let mut lost = std::mem::take(&mut self.scratch.lost);
        let mut healthy = std::mem::take(&mut self.scratch.healthy);
        let mut redundancy = std::mem::take(&mut self.scratch.redundancy);
        lost.clear();
        healthy.clear();
        redundancy.clear();
        for idx in start..end {
            let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
            let loc = self.layout.locate(addr);
            if self.is_down(loc.disk) {
                lost.push(idx);
            } else {
                healthy.push((idx, loc));
            }
        }
        let first_addr = StreamAddr::new(placement.stream, placement.start_index + start);
        {
            let group = self.layout.group(self.layout.group_id_of(first_addr));
            redundancy.extend(group.redundancy_blocks().filter(|l| !self.is_down(l.disk)));
        }
        if redundancy.len() < lost.len() {
            // More window members down than alive redundancy shards can
            // stand in for (under `m = 1`: two members down, or the lost
            // data block's parity with it): the group cannot decode —
            // declare the stream lost instead of mis-serving a partial
            // reconstruction.
            let first = lost.first().copied().unwrap_or(start);
            self.scratch.lost = lost;
            self.scratch.healthy = healthy;
            self.scratch.redundancy = redundancy;
            self.lose_stream(id, slot, first);
            return;
        }
        // Every survivor must arrive by the earliest lost deadline.
        let lost_needed =
            lost.iter().map(|&idx| self.table.consume_round(slot, idx, scheme, span)).min();
        let recon_first = lost.first().copied();
        for &(idx, loc) in &healthy {
            let needed = self.table.consume_round(slot, idx, scheme, span);
            self.push_fetch(Fetch {
                client: id,
                clip,
                loc,
                needed: lost_needed.map_or(needed, |ln| needed.min(ln)),
                seq: 0, // stamped by push_fetch
                serves: Some(idx),
                recon_for: recon_first,
                rebuild_for: None,
                slot,
            });
        }
        // Redundancy reads: always for streaming RAID; on failure for
        // the pre-fetching schemes (unless only redundancy disks died,
        // in which case the data is all there and nothing is lost).
        if with_parity || !lost.is_empty() {
            for &r_loc in &redundancy {
                let needed = lost_needed
                    .unwrap_or_else(|| self.table.consume_round(slot, start, scheme, span));
                self.push_fetch(Fetch {
                    client: id,
                    clip,
                    loc: r_loc,
                    needed,
                    seq: 0, // stamped by push_fetch
                    serves: None,
                    recon_for: recon_first,
                    rebuild_for: None,
                    slot,
                });
                if let Some(idx) = recon_first {
                    self.metrics.recovery_reads += 1;
                    self.metrics.disk_recovery_reads[r_loc.disk.idx()] += 1;
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::RecoveryRead {
                            request: id.raw(),
                            disk: r_loc.disk.raw(),
                            block: idx,
                        },
                    );
                }
            }
        }
        let survivors = (healthy.len() + redundancy.len()) as u32;
        if let Some(idx) = recon_first {
            // Reconstruction waits for every surviving group read that
            // carries recon_for: the healthy siblings of this fetch plus
            // the alive redundancy shards.
            debug_assert!(survivors > 0, "undecodable groups are declared lost above");
            if let Some(tr) = self.tracer.as_mut() {
                tr.record_recovery_fanout(u64::from(survivors));
            }
            if self.table.live(id, slot) {
                sv_insert(
                    &mut self.table.recon_pending[slot as usize],
                    idx,
                    pack_pending(survivors, survivors),
                );
            }
        }
        // Additional lost blocks (`m ≥ 2` with multiple failures in one
        // cluster) each get their own reconstruction stream: dedicated
        // recovery reads of the same survivors, accounted per block.
        for &idx in lost.iter().skip(1) {
            let needed = self.table.consume_round(slot, idx, scheme, span);
            for &(_, h_loc) in &healthy {
                self.push_fetch(Fetch {
                    client: id,
                    clip,
                    loc: h_loc,
                    needed,
                    seq: 0, // stamped by push_fetch
                    serves: None,
                    recon_for: Some(idx),
                    rebuild_for: None,
                    slot,
                });
                self.metrics.recovery_reads += 1;
                self.metrics.disk_recovery_reads[h_loc.disk.idx()] += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::RecoveryRead { request: id.raw(), disk: h_loc.disk.raw(), block: idx },
                );
            }
            for &r_loc in &redundancy {
                self.push_fetch(Fetch {
                    client: id,
                    clip,
                    loc: r_loc,
                    needed,
                    seq: 0, // stamped by push_fetch
                    serves: None,
                    recon_for: Some(idx),
                    rebuild_for: None,
                    slot,
                });
                self.metrics.recovery_reads += 1;
                self.metrics.disk_recovery_reads[r_loc.disk.idx()] += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::RecoveryRead { request: id.raw(), disk: r_loc.disk.raw(), block: idx },
                );
            }
            if let Some(tr) = self.tracer.as_mut() {
                tr.record_recovery_fanout(u64::from(survivors));
            }
            if self.table.live(id, slot) {
                sv_insert(
                    &mut self.table.recon_pending[slot as usize],
                    idx,
                    pack_pending(survivors, survivors),
                );
            }
        }
        self.scratch.lost = lost;
        self.scratch.healthy = healthy;
        self.scratch.redundancy = redundancy;
    }

    /// Schedules the declustered/non-clustered recovery reads that rebuild
    /// clip block `idx` after its disk failed.
    fn schedule_recovery(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let clip = placement.id;
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let mut reads = std::mem::take(&mut self.scratch.reads);
        self.layout.reconstruction_reads_into(addr, &mut reads);
        // The sources are the group's other shards: its data siblings
        // plus all `m` redundancy blocks, so decoding the lost block
        // tolerates at most `m − 1` of them being down as well. More
        // (under `m = 1`: any second down disk, or no sources at all)
        // makes the block unreconstructable: the stream is declared
        // lost, never silently mis-served from a partial decode.
        let total = reads.len();
        reads.retain(|l| !self.is_down(l.disk));
        if reads.is_empty() || total - reads.len() >= self.cfg.m as usize {
            self.scratch.reads = reads;
            self.lose_stream(id, slot, idx);
            return;
        }
        let mut survivors = 0u32;
        for &loc in &reads {
            self.push_fetch(Fetch {
                client: id,
                clip,
                loc,
                needed,
                seq: 0, // stamped by push_fetch
                serves: None,
                recon_for: Some(idx),
                rebuild_for: None,
                slot,
            });
            survivors += 1;
            self.metrics.recovery_reads += 1;
            self.metrics.disk_recovery_reads[loc.disk.idx()] += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::RecoveryRead { request: id.raw(), disk: loc.disk.raw(), block: idx },
            );
        }
        self.scratch.reads = reads;
        if let Some(tr) = self.tracer.as_mut() {
            tr.record_recovery_fanout(u64::from(survivors));
        }
        if self.table.live(id, slot) {
            sv_insert(
                &mut self.table.recon_pending[slot as usize],
                idx,
                pack_pending(survivors, survivors),
            );
        }
    }

    /// Stages a fetch for its disk, stamping the issue seq — monotonically
    /// increasing across the whole run — so a fresh fetch always sorts
    /// *after* every queued fetch with the same deadline. The staging row
    /// is merged into the disk's `(needed, seq)`-ordered queue by
    /// [`Simulator::flush_disk`]; the combined sort-and-merge produces
    /// exactly the queue the old one-ordered-insert-per-push maintained
    /// (and hence the old per-round stable sort on `needed`: leftovers —
    /// earlier stamps — precede new arrivals among equal deadlines).
    // lint: hot
    fn push_fetch(&mut self, mut fetch: Fetch) {
        debug_assert!(!self.is_down(fetch.loc.disk), "fetch routed to a down disk");
        fetch.seq = self.fetch_seq;
        self.fetch_seq += 1;
        self.incoming[fetch.loc.disk.idx()].push(fetch);
    }

    /// Merges one disk's staging row into its EDF queue. Both runs are
    /// sorted by `(needed, seq)` — the staging row after one
    /// `sort_unstable` (unique seq stamps: no ties, so instability is
    /// irrelevant), the queue by induction — so a single backward
    /// two-pointer merge restores the global order in O(n + k) moves.
    /// Equivalent to, and replacing, k ordered mid-vector inserts of
    /// O(n) each.
    // lint: hot
    fn flush_disk(&mut self, disk: usize) {
        let (queue, staged) = (&mut self.queues[disk], &mut self.incoming[disk]);
        if staged.is_empty() {
            return;
        }
        staged.sort_unstable_by_key(|f| (f.needed, f.seq));
        if queue.last().is_none_or(|l| (l.needed, l.seq) < (staged[0].needed, staged[0].seq)) {
            // Common case (steady state): every staged fetch lands after
            // the whole queue.
            queue.extend_from_slice(staged);
        } else {
            let old_len = queue.len();
            queue.extend_from_slice(staged);
            // Backward merge: `i` walks the old run, `j` the staged run,
            // `k` the write cursor. While `j ≥ 0`, `k` stays strictly
            // ahead of `i`, so no unread element is overwritten — the
            // safe-code in-place merge (the sim crate forbids unsafe).
            let mut i = old_len as isize - 1;
            let mut j = staged.len() as isize - 1;
            let mut k = queue.len() as isize - 1;
            while j >= 0 {
                let take_old = i >= 0 && {
                    let (o, s) = (&queue[i as usize], &staged[j as usize]);
                    (o.needed, o.seq) > (s.needed, s.seq)
                };
                if take_old {
                    queue[k as usize] = queue[i as usize];
                    i -= 1;
                } else {
                    queue[k as usize] = staged[j as usize];
                    j -= 1;
                }
                k -= 1;
            }
        }
        staged.clear();
        debug_assert!(
            queue.windows(2).all(|w| (w[0].needed, w[0].seq) <= (w[1].needed, w[1].seq)),
            "disk queue must stay ordered by (needed, seq)"
        );
    }

    /// Services every disk's queue for this round, then merges the
    /// results and delivers the fetched blocks.
    ///
    /// The paper's §3 observation that per-round disk work is independent
    /// by construction is load-bearing here: each disk's EDF sort, C-SCAN
    /// sweep and service-time accounting touch only that disk's queue and
    /// head state, so phase one fans the disks out across
    /// `self.workers` scoped threads (none when `workers == 1`). Phase
    /// two walks the locally-computed [`DiskRound`]s **in disk-ID order**
    /// on the calling thread — every metric accumulation and every
    /// `deliver` happens in exactly the sequence the sequential loop
    /// used, which is what makes results bit-identical at any thread
    /// count (the determinism contract in DESIGN.md).
    fn execute_disks(&mut self) {
        // Merge this round's staged fetches into the per-disk EDF queues
        // — before the streaming-RAID gate below, so fetches staged on a
        // skipped round are queued (not lost) exactly as the old direct
        // ordered inserts left them.
        for disk in 0..self.queues.len() {
            self.flush_disk(disk);
        }
        let span = self.group_span();
        let streaming = self.cfg.scheme == Scheme::StreamingRaid;
        // Streaming RAID disks work in long rounds; others every round.
        if streaming && !self.t.is_multiple_of(span) {
            return;
        }
        let deadline = if streaming {
            self.round_duration * span as f64
        } else {
            self.round_duration
        };
        let budget = self.cfg.q as usize;
        let workers = self.workers;
        let collect_events = self.tracer.is_some();
        // Per-disk arenas and result slots are owned by the simulator and
        // reused every round; taking them out lets worker threads borrow
        // them while `self.array`'s split borrow is live.
        let mut scratches = std::mem::take(&mut self.round_scratch);
        let mut results = std::mem::take(&mut self.round_results);
        #[cfg(feature = "bench-alloc")]
        crate::hotgauge::enter_serve();
        // Phase one: per-disk service, parallel over disjoint
        // (queue, disk, scratch, result) quads. `service_parts` splits
        // the array borrow so worker threads never alias `self`.
        {
            let (ctx, disks) = self.array.service_parts();
            if workers <= 1 {
                for (((queue, disk), scratch), slot) in self
                    .queues
                    .iter_mut()
                    .zip(disks.iter_mut())
                    .zip(scratches.iter_mut())
                    .zip(results.iter_mut())
                {
                    *slot = serve_disk(queue, disk, &ctx, budget, deadline, collect_events, scratch);
                }
            } else {
                let chunk = self.queues.len().div_ceil(workers);
                // `thread::scope` joins every spawned worker before it
                // returns and propagates the first panic, so no explicit
                // join handles (or join().expect) are needed.
                std::thread::scope(|scope| {
                    for (((queues, disks), scratches), slots) in self
                        .queues
                        .chunks_mut(chunk)
                        .zip(disks.chunks_mut(chunk))
                        .zip(scratches.chunks_mut(chunk))
                        .zip(results.chunks_mut(chunk))
                    {
                        scope.spawn(move || {
                            for (((queue, disk), scratch), slot) in queues
                                .iter_mut()
                                .zip(disks.iter_mut())
                                .zip(scratches.iter_mut())
                                .zip(slots.iter_mut())
                            {
                                *slot = serve_disk(
                                    queue,
                                    disk,
                                    &ctx,
                                    budget,
                                    deadline,
                                    collect_events,
                                    scratch,
                                );
                            }
                        });
                    }
                });
            }
        }
        #[cfg(feature = "bench-alloc")]
        crate::hotgauge::exit_serve();
        // Phase two: sequential merge in disk-ID order. Each disk's
        // buffered events are drained here, so the trace stream is the
        // one the sequential loop would have written — byte-identical at
        // any thread count, exactly like `disk_busy`.
        for (disk, round) in results.iter().enumerate() {
            for kind in scratches[disk].events.drain(..) {
                emit(&mut self.tracer, self.t, kind);
            }
            self.metrics.service_errors += u64::from(round.dropped);
            let Some(outcome) = round.outcome else {
                continue; // empty queue (or refused service) this round
            };
            self.metrics.peak_disk_queue = self.metrics.peak_disk_queue.max(round.queue_len);
            self.metrics.peak_utilization =
                self.metrics.peak_utilization.max(outcome.utilization());
            self.metrics.disk_busy[disk] += outcome.busy;
            self.metrics.disk_blocks[disk] += u64::from(outcome.blocks);
            for &fetch in &scratches[disk].served {
                self.deliver(fetch);
            }
        }
        self.round_scratch = scratches;
        self.round_results = results;
    }

    // lint: hot
    fn deliver(&mut self, fetch: Fetch) {
        self.metrics.blocks_fetched += 1;
        if let Some(block_no) = fetch.rebuild_for {
            if let Some(rb) = &mut self.rebuild {
                if let Some(outstanding) = rb.outstanding.get_mut(&block_no) {
                    // Delivery: one fewer pending read; the arrival was
                    // expected, so the high half is untouched.
                    *outstanding -= 1;
                    if *outstanding & 0xFFFF == 0 {
                        rb.outstanding.remove(&block_no);
                        rb.rebuilt += 1;
                        self.metrics.rebuilt_blocks += 1;
                        self.check_rebuild_complete();
                    }
                }
            }
            return;
        }
        if fetch.needed > 0 && self.t + 1 > fetch.needed {
            self.metrics.late_serves += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::LateServe {
                    request: fetch.client.raw(),
                    block: fetch.serves.or(fetch.recon_for).unwrap_or(0),
                },
            );
        }
        if !self.table.live(fetch.client, fetch.slot) {
            return; // client already completed (stale recovery read)
        }
        let slot = fetch.slot as usize;
        if let Some(idx) = fetch.serves {
            sv_or_insert(&mut self.table.avail[slot], idx, self.t + 1);
        }
        if let Some(idx) = fetch.recon_for {
            let done = if let Some(pending) = sv_get_mut(&mut self.table.recon_pending[slot], idx)
            {
                // Delivery: one fewer pending read; the arrival was
                // expected, so the high half is untouched.
                *pending -= 1;
                *pending & 0xFFFF == 0
            } else {
                false
            };
            if done {
                self.complete_reconstruction(fetch.client, fetch.slot, idx);
            }
        }
    }

    /// The last pending survivor read for block `idx` of `(id, slot)`
    /// arrived (or was harmlessly stranded): the block decodes. Makes it
    /// available next round and runs the optional byte-level
    /// verification.
    fn complete_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64) {
        let s = slot as usize;
        sv_remove(&mut self.table.recon_pending[s], idx);
        sv_insert(&mut self.table.avail[s], idx, self.t + 1);
        self.metrics.reconstructions += 1;
        emit(&mut self.tracer, self.t, EventKind::Reconstruction { request: id.raw(), block: idx });
        if self.cfg.verify_parity {
            let placement = self.table.placement[s];
            let mut vs = std::mem::take(&mut self.scratch.verify);
            let ok = self.verify_reconstruction(&mut vs, placement, idx);
            self.scratch.verify = vs;
            if !ok {
                self.metrics.parity_mismatches += 1;
            }
        }
    }

    /// Byte-level check: the group's codec — XOR for `m = 1`, GF(256)
    /// Reed–Solomon for `m ≥ 2`, as [`codec_for`] picks — re-encodes the
    /// group's synthetic content and reproduces the lost block from its
    /// survivors. All block buffers come from `scratch` and are refilled
    /// in place, and each geometry's codec is built once — no allocation
    /// once the pool has grown (DESIGN.md §7). A group that cannot
    /// encode (unequal block lengths) or decode reports a mismatch
    /// instead of panicking mid-delivery.
    fn verify_reconstruction(
        &self,
        scratch: &mut VerifyScratch,
        placement: ClipPlacement,
        idx: u64,
    ) -> bool {
        let lost = StreamAddr::new(placement.stream, placement.start_index + idx);
        let group = self.layout.group(self.layout.group_id_of(lost));
        let n = self.cfg.content_bytes;
        let k = group.data.len();
        let m = group.redundancy();
        let VerifyScratch { codecs, shards, rebuilt, expect } = scratch;
        let known = codecs.iter().position(|c| c.data_shards() == k && c.parity_shards() == m);
        let at = match known {
            Some(at) => at,
            None => {
                let Ok(c) = codec_for(k, m) else { return false };
                codecs.push(c);
                codecs.len() - 1
            }
        };
        let codec = &mut codecs[at];
        if shards.len() < k + m {
            shards.resize_with(k + m, Block::default);
        }
        let all = &mut shards[..k + m];
        for (slot, &a) in all.iter_mut().zip(group.data) {
            slot.fill_synthetic(u64::from(a.stream), a.index, n);
        }
        if codec.encode_within(all).is_err() {
            return false;
        }
        let Some(lost_idx) = group.data.iter().position(|&a| a == lost) else {
            return false;
        };
        if codec.reconstruct_within(all, lost_idx, rebuilt).is_err() {
            return false;
        }
        expect.fill_synthetic(u64::from(lost.stream), lost.index, n);
        *rebuilt == *expect
    }

    // lint: hot
    fn consume_and_complete(&mut self) {
        let scheme = self.cfg.scheme;
        let span = self.group_span();
        let mut done = std::mem::take(&mut self.scratch.done);
        done.clear();
        let mut buffered = 0u64;
        for at in 0..self.table.order.len() {
            let (id, slot) = self.table.order[at];
            if !self.table.live(id, slot) {
                continue;
            }
            let s = slot as usize;
            let len = self.table.placement[s].len;
            while self.table.consumed[s] < len
                && self.t >= self.table.consume_round(slot, self.table.consumed[s], scheme, span)
            {
                let idx = self.table.consumed[s];
                match sv_get(&self.table.avail[s], idx) {
                    Some(avail_at) if avail_at <= self.t => {
                        sv_remove(&mut self.table.avail[s], idx);
                        self.metrics.blocks_consumed += 1;
                    }
                    _ => {
                        // Not in the buffer when its round came: the
                        // playback glitch the guarantee schemes must
                        // never produce.
                        self.metrics.hiccups += 1;
                        emit(
                            &mut self.tracer,
                            self.t,
                            EventKind::Hiccup { request: id.raw(), block: idx },
                        );
                    }
                }
                self.table.consumed[s] += 1;
            }
            buffered += self.table.avail[s].len() as u64;
            if self.table.consumed[s] >= len {
                done.push((id, slot));
            }
        }
        self.metrics.peak_buffered_blocks = self.metrics.peak_buffered_blocks.max(buffered);
        for &(id, slot) in &done {
            self.table.remove(id, slot);
            self.admission.remove(id);
            self.metrics.completed += 1;
            emit(&mut self.tracer, self.t, EventKind::Completion { request: id.raw() });
        }
        self.scratch.done = done;
        // Amortized sweep of completion tombstones out of the order
        // index, so long runs never scan a mostly-dead vector.
        self.table.maybe_compact();
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
    use cms_core::DiskParams;
    use cms_model::{capacity, ModelInput};
    use proptest::prelude::*;

    /// The retained pre-optimization `serve_disk`: allocates fresh
    /// buffers and stable-sorts the whole queue by `needed` every round.
    /// The equivalence proptest below drives it in lock-step with the
    /// scratch-reusing implementation to prove the incremental
    /// `(needed, seq)` queue order and buffer reuse change nothing.
    #[allow(clippy::type_complexity)]
    fn serve_disk_reference(
        queue: &mut Vec<Fetch>,
        disk: &mut Disk,
        ctx: &ServiceContext,
        budget: usize,
        deadline: f64,
        collect_events: bool,
    ) -> (u32, Vec<Fetch>, Option<RoundOutcome>, u32, Vec<EventKind>) {
        if queue.is_empty() {
            return (0, Vec::new(), None, 0, Vec::new());
        }
        let queue_len = queue.len() as u32;
        queue.sort_by_key(|f| f.needed);
        let take = queue.len().min(budget);
        let served: Vec<Fetch> = queue.drain(..take).collect();
        let requests: Vec<BlockRequest> = served
            .iter()
            .map(|f| BlockRequest {
                disk: disk.id,
                block_no: f.loc.block_no,
                clip: f.clip,
                reconstruction: f.recon_for.is_some(),
            })
            .collect();
        match disk.service_round(ctx, &requests, deadline) {
            Ok(outcome) => {
                let events = if collect_events {
                    vec![EventKind::DiskServe {
                        disk: disk.id.raw(),
                        blocks: outcome.blocks,
                        busy_us: (outcome.busy * 1e6).round() as u64,
                        queue: queue_len,
                    }]
                } else {
                    Vec::new()
                };
                (queue_len, served, Some(outcome), 0, events)
            }
            Err(_) => {
                let dropped = served.len() as u32;
                let events = if collect_events {
                    vec![EventKind::ServiceError { disk: disk.id.raw(), dropped }]
                } else {
                    Vec::new()
                };
                (queue_len, Vec::new(), None, dropped, events)
            }
        }
    }

    proptest! {
        #[test]
        fn scratch_serve_disk_matches_allocating_reference(
            // Per round: a batch of (needed, block_no, is_recon) fetches
            // plus a drain budget. Small `needed` range forces deadline
            // ties, the stable-order hazard.
            rounds in prop::collection::vec(
                (prop::collection::vec((0u64..6, 0u64..400, any::<bool>()), 0..12), 1usize..10),
                1..6
            ),
            fail_disk in any::<bool>(),
        ) {
            let mk_array = || {
                DiskArray::new(1, DiskParams::sigmod96(), TimingModel::worst_case(), 1 << 20)
                    .expect("1-disk array")
            };
            let mut opt_array = mk_array();
            let mut ref_array = mk_array();
            if fail_disk {
                opt_array.fail(DiskId(0)).unwrap();
                ref_array.fail(DiskId(0)).unwrap();
            }
            let mut opt_queue: Vec<Fetch> = Vec::new();
            let mut ref_queue: Vec<Fetch> = Vec::new();
            let mut scratch = RoundScratch::default();
            let mut seq = 0u64;
            let deadline = 0.5;
            for (batch, budget) in rounds {
                for (needed, block_no, recon) in batch {
                    let fetch = Fetch {
                        client: RequestId(seq),
                        clip: ClipId(seq % 7),
                        loc: BlockLocation { disk: DiskId(0), block_no },
                        needed,
                        seq,
                        serves: (!recon).then_some(block_no),
                        recon_for: recon.then_some(block_no),
                        rebuild_for: None,
                        slot: 0,
                    };
                    seq += 1;
                    // Mirror push_fetch's ordered insert on one side, the
                    // old plain append on the other.
                    let pos = opt_queue.partition_point(|f| f.needed <= fetch.needed);
                    opt_queue.insert(pos, fetch);
                    ref_queue.push(fetch);
                }
                let opt_round = {
                    let (ctx, disks) = opt_array.service_parts();
                    serve_disk(&mut opt_queue, &mut disks[0], &ctx, budget, deadline, true, &mut scratch)
                };
                let (ref_len, ref_served, ref_outcome, ref_dropped, ref_events) = {
                    let (ctx, disks) = ref_array.service_parts();
                    serve_disk_reference(&mut ref_queue, &mut disks[0], &ctx, budget, deadline, true)
                };
                prop_assert_eq!(opt_round.queue_len, ref_len);
                prop_assert_eq!(opt_round.dropped, ref_dropped);
                prop_assert_eq!(&scratch.served, &ref_served, "served order diverged");
                prop_assert_eq!(&scratch.events, &ref_events);
                match (opt_round.outcome, ref_outcome) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.blocks, b.blocks);
                        prop_assert_eq!(a.busy.to_bits(), b.busy.to_bits(), "busy time diverged");
                        prop_assert_eq!(a.deadline.to_bits(), b.deadline.to_bits());
                    }
                    (a, b) => prop_assert!(false, "outcome presence diverged: {a:?} vs {b:?}"),
                }
                // The leftover queues must agree element-for-element: the
                // reference's post-sort remainder is exactly the order the
                // incremental queue maintains.
                prop_assert_eq!(&opt_queue, &ref_queue, "leftover queues diverged");
            }
        }
    }

    /// A small, fast configuration used by most tests.
    fn small_cfg(scheme: Scheme) -> SimConfig {
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
    fn guarantee_schemes_survive_failure_without_hiccups() {
        for scheme in [
            Scheme::DeclusteredParity,
            Scheme::DynamicReservation,
            Scheme::PrefetchParityDisks,
            Scheme::PrefetchFlat,
            Scheme::StreamingRaid,
        ] {
            let cfg = small_cfg(scheme).with_failure(40, DiskId(2)).with_verification();
            let m = Simulator::new(cfg).unwrap().run();
            assert!(m.admitted > 0, "{scheme}");
            assert_eq!(
                m.hiccups, 0,
                "{scheme} must keep rate guarantees through a failure"
            );
            assert_eq!(m.parity_mismatches, 0, "{scheme}: reconstruction corrupt");
            assert!(
                m.reconstructions > 0 || m.recovery_reads == 0,
                "{scheme}: recovery accounting inconsistent"
            );
        }
    }

    #[test]
    fn failure_triggers_reconstructions_with_correct_bytes() {
        let cfg = small_cfg(Scheme::DeclusteredParity)
            .with_failure(30, DiskId(1))
            .with_verification();
        let m = Simulator::new(cfg).unwrap().run();
        assert!(m.reconstructions > 0, "failure must force reconstructions");
        assert_eq!(m.parity_mismatches, 0);
        assert!(m.recovery_reads >= m.reconstructions);
    }

    #[test]
    fn streaming_raid_reads_parity_even_when_healthy() {
        let m = Simulator::new(small_cfg(Scheme::StreamingRaid)).unwrap().run();
        // Group fetches include the parity block: fetched strictly exceeds
        // consumed even with full completion.
        assert!(m.blocks_fetched > m.blocks_consumed);
    }

    #[test]
    fn non_clustered_hiccups_under_failure_when_saturated() {
        // Saturate a small non-clustered server, then kill a disk: the
        // §7.4 caveat — transition reads exceed budgets and clips glitch.
        let mut cfg = small_cfg(Scheme::NonClustered);
        cfg.arrival_rate = 30.0; // saturate
        cfg.q = 4;
        cfg = cfg.with_failure(40, DiskId(1));
        let m = Simulator::new(cfg).unwrap().run();
        assert!(
            m.hiccups > 0,
            "saturated non-clustered must glitch on failure (got {m:?})"
        );
    }

    #[test]
    fn repair_restores_normal_operation() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.failure = Some(crate::config::FailureScenario {
            fail_round: 30,
            disk: DiskId(0),
            repair_round: Some(60),
        });
        cfg.rounds = 150;
        let sim = Simulator::new(cfg).unwrap();
        let m = sim.run();
        assert_eq!(m.hiccups, 0);
        assert!(m.reconstructions > 0);
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
    fn admission_is_fifo_and_starvation_free() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.arrival_rate = 50.0; // deep queue
        let m = Simulator::new(cfg).unwrap().run();
        // Saturated: many still pending, but throughput continued all run
        // (admissions keep happening as clips complete).
        assert!(m.still_pending > 0);
        assert!(m.admitted > 40, "server must keep admitting under overload");
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
    fn external_submission_and_manual_failure() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.arrival_rate = 0.0; // fully externally driven
        cfg.verify_parity = true;
        let mut sim = Simulator::new(cfg).unwrap();
        assert!(sim.submit(ClipId(999)).is_err(), "unknown clip rejected");
        for clip in 0..10u64 {
            sim.submit(ClipId(clip)).unwrap();
        }
        assert_eq!(sim.pending_requests(), 10);
        for _ in 0..5 {
            sim.step();
        }
        assert!(sim.active_clients() > 0);
        // Manual failure mid-run; single-failure model enforced.
        sim.fail_disk(DiskId(3)).unwrap();
        assert_eq!(sim.failed_disk(), Some(DiskId(3)));
        assert!(sim.fail_disk(DiskId(4)).is_err());
        assert!(sim.repair_disk(DiskId(4)).is_err());
        for _ in 0..10 {
            sim.step();
        }
        sim.repair_disk(DiskId(3)).unwrap();
        assert_eq!(sim.failed_disk(), None);
        for _ in 0..40 {
            sim.step();
        }
        let m = sim.metrics();
        assert_eq!(m.hiccups, 0);
        assert_eq!(m.parity_mismatches, 0);
        assert_eq!(m.completed, 10);
    }

    #[test]
    fn background_rebuild_restores_redundancy() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.auto_rebuild = true;
        cfg.verify_parity = true;
        cfg.rounds = 400;
        cfg.arrival_rate = 1.0; // leave slack for the rebuild
        cfg = cfg.with_failure(30, DiskId(2));
        let m = Simulator::new(cfg).unwrap().run();
        assert_eq!(m.hiccups, 0, "client guarantees hold during rebuild");
        assert!(m.rebuild_reads > 0, "rebuild must issue reads");
        assert!(m.rebuilt_blocks > 0);
        let done = m
            .rebuild_completed_round
            .expect("rebuild must finish within the run");
        assert!(done > 30, "completion after the failure");
        assert_eq!(m.parity_mismatches, 0);
    }

    #[test]
    fn rebuild_has_lowest_priority() {
        // Saturate the server; the rebuild must progress only via slack
        // and never cause a client hiccup.
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.auto_rebuild = true;
        cfg.arrival_rate = 20.0; // saturated
        cfg.rounds = 300;
        cfg = cfg.with_failure(50, DiskId(1));
        let m = Simulator::new(cfg).unwrap().run();
        assert_eq!(m.hiccups, 0, "rebuild must never displace client reads");
        assert!(m.rebuilt_blocks > 0, "rebuild still progresses via slack");
    }

    #[test]
    fn manual_repair_cancels_rebuild() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.auto_rebuild = true;
        cfg.arrival_rate = 0.0;
        let mut sim = Simulator::new(cfg).unwrap();
        sim.fail_disk(DiskId(3)).unwrap();
        assert!(sim.rebuild_progress().is_some());
        sim.step();
        sim.repair_disk(DiskId(3)).unwrap();
        assert!(sim.rebuild_progress().is_none());
        assert_eq!(sim.failed_disk(), None);
    }

    #[test]
    fn pause_releases_bandwidth_and_resume_replays() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.arrival_rate = 0.0;
        let mut sim = Simulator::new(cfg).unwrap();
        let ids: Vec<RequestId> =
            (0..6u64).map(|c| sim.submit(ClipId(c)).unwrap()).collect();
        for _ in 0..6 {
            sim.step();
        }
        assert_eq!(sim.active_clients(), 6);
        // Pause half of them: slots free immediately.
        for &id in &ids[..3] {
            sim.pause(id).unwrap();
        }
        assert_eq!(sim.active_clients(), 3);
        assert_eq!(sim.paused_sessions(), 3);
        assert!(sim.pause(ids[0]).is_err(), "double pause rejected");
        for _ in 0..5 {
            sim.step();
        }
        // Resume them; all must complete without a glitch.
        for &id in &ids[..3] {
            sim.resume(id).unwrap();
        }
        assert_eq!(sim.paused_sessions(), 0);
        assert!(sim.resume(ids[0]).is_err(), "double resume rejected");
        for _ in 0..60 {
            sim.step();
        }
        let m = sim.metrics();
        assert_eq!(m.completed, 6);
        assert_eq!(m.hiccups, 0);
    }

    #[test]
    fn pause_resume_for_prefetch_aligns_to_groups() {
        let mut cfg = small_cfg(Scheme::PrefetchParityDisks);
        cfg.arrival_rate = 0.0;
        let mut sim = Simulator::new(cfg).unwrap();
        let id = sim.submit(ClipId(0)).unwrap();
        for _ in 0..8 {
            sim.step();
        }
        sim.pause(id).unwrap();
        let resumed = sim.resume(id).unwrap();
        assert_ne!(resumed, id);
        for _ in 0..60 {
            sim.step();
        }
        let m = sim.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.hiccups, 0);
    }

    #[test]
    fn pause_at_clip_end_completes_on_resume() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.arrival_rate = 0.0;
        let mut sim = Simulator::new(cfg).unwrap();
        let id = sim.submit(ClipId(1)).unwrap();
        // Play to the penultimate round, then pause and resume.
        for _ in 0..20 {
            sim.step();
        }
        if sim.active_clients() == 1 {
            sim.pause(id).unwrap();
            sim.resume(id).unwrap();
            for _ in 0..30 {
                sim.step();
            }
        }
        assert_eq!(sim.metrics().completed, 1);
        assert_eq!(sim.metrics().hiccups, 0);
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
    fn trace_summary_records_failure_milestones() {
        let cfg = small_cfg(Scheme::DeclusteredParity)
            .with_failure(40, DiskId(2))
            .with_trace(cms_trace::TraceSpec::null());
        let (m, summary) = Simulator::new(cfg).unwrap().run_summary();
        let s = summary.unwrap();
        assert_eq!(s.failure_round, Some(40));
        assert_eq!(s.recovery_reads, m.recovery_reads);
        assert!(s.recovery_reads > 0);
        let gap = s.failure_to_first_recovery().expect("recovery reads after failure");
        assert!(gap <= 2, "recovery starts within a couple of rounds, got {gap}");
        assert!(s.recovery_fanout.total() > 0, "fan-out recorded per lost block");
    }

    #[test]
    fn trace_summary_reports_finite_rebuild_gap() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity);
        cfg.auto_rebuild = true;
        cfg.rounds = 400;
        cfg.arrival_rate = 1.0;
        cfg = cfg.with_failure(30, DiskId(2)).with_trace(cms_trace::TraceSpec::null());
        let (m, summary) = Simulator::new(cfg).unwrap().run_summary();
        let s = summary.unwrap();
        let gap = s.failure_to_rebuild_complete().expect("rebuild must finish in-run");
        assert!(gap > 0, "rebuild cannot complete in the failure round");
        assert_eq!(s.rebuild_completed_round, m.rebuild_completed_round);
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
    fn scheduled_double_failure_declares_streams_lost() {
        // Two hard failures 10 rounds apart: every stream whose due
        // group spans both disks is terminated deterministically. Disks
        // 1 and 3 share parity groups in the seed-7 (8, 4) design; a
        // pair from complementary sets (e.g. 1 and 2) never would, and
        // the array would keep reconstructing around both.
        let faults = cms_fault::FaultSchedule::parse("@30 fail 1\n@40 fail 3\n").unwrap();
        let cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
        let run = || Simulator::new(cfg.clone()).unwrap().run();
        let m = run();
        assert!(m.lost_streams > 0, "overlapping groups must lose streams: {m:?}");
        assert_eq!(m.parity_mismatches, 0);
        assert!(m.completed + m.lost_streams <= m.admitted);
        assert_eq!(m, run(), "loss declaration must be deterministic");
    }

    #[test]
    fn transient_outage_reconstructs_and_recovers() {
        let faults =
            cms_fault::FaultSchedule::parse("@30 transient 2 rounds=10\n").unwrap();
        let cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults).with_verification();
        let m = Simulator::new(cfg).unwrap().run();
        assert_eq!(m.hiccups, 0, "reconstruction covers the blip: {m:?}");
        assert_eq!(m.lost_streams, 0);
        assert_eq!(m.parity_mismatches, 0);
        assert!(m.recovery_reads > 0, "reads during the window go through recovery");
        assert!(m.completed > 0);
        // The disk served blocks again after the window closed.
        assert!(m.disk_blocks[2] > 0, "disk 2 must return to service");
    }

    #[test]
    fn slow_disk_window_throttles_but_loses_nothing() {
        let faults =
            cms_fault::FaultSchedule::parse("@30 slow 2 factor=4 rounds=20\n").unwrap();
        let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
        cfg.arrival_rate = 1.0;
        let m = Simulator::new(cfg).unwrap().run();
        assert_eq!(m.lost_streams, 0);
        assert_eq!(m.parity_mismatches, 0);
        assert!(m.completed > 0);
    }

    #[test]
    fn degraded_admission_caps_active_streams() {
        let mut cfg = small_cfg(Scheme::DeclusteredParity)
            .with_failure(20, DiskId(1))
            .with_degraded_admission();
        cfg.arrival_rate = 20.0; // keep the pending queue deep
        let m = Simulator::new(cfg.clone()).unwrap().run();
        assert!(m.degraded_refusals > 0, "cap must bite under overload: {m:?}");
        // Enforcement off: same workload admits past the cap's refusals.
        let mut open = cfg;
        open.degraded_admission = false;
        let o = Simulator::new(open).unwrap().run();
        assert_eq!(o.degraded_refusals, 0);
        assert!(o.admitted >= m.admitted);
    }

    #[test]
    fn nonclustered_degraded_cap_is_zero() {
        let faults = cms_fault::FaultSchedule::parse("@20 fail 1\n").unwrap();
        let mut cfg = small_cfg(Scheme::NonClustered)
            .with_faults(faults)
            .with_degraded_admission();
        cfg.arrival_rate = 10.0;
        let m = Simulator::new(cfg).unwrap().run();
        assert!(m.degraded_refusals > 0, "no admissions while degraded: {m:?}");
    }

    #[test]
    fn fault_schedule_repair_restores_service() {
        let faults =
            cms_fault::FaultSchedule::parse("@30 fail 2\n@60 repair 2\n").unwrap();
        let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
        cfg.rounds = 150;
        let mut sim = Simulator::new(cfg).unwrap();
        for _ in 0..40 {
            sim.step();
        }
        assert_eq!(sim.failed_disk(), Some(DiskId(2)));
        for _ in 0..30 {
            sim.step();
        }
        assert_eq!(sim.failed_disk(), None, "scheduled repair must clear the failure");
        for _ in 0..80 {
            sim.step();
        }
        let m = sim.metrics();
        assert_eq!(m.hiccups, 0);
        assert_eq!(m.lost_streams, 0);
    }

    #[test]
    fn fault_schedule_runs_are_thread_invariant() {
        let faults = cms_fault::FaultSchedule::parse(
            "@25 transient 0 rounds=6\n@30 fail 1\n@45 slow 4 factor=3 rounds=15\n@70 fail 2\n",
        )
        .unwrap();
        let mut base = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
        base.auto_rebuild = true;
        let seq = Simulator::new(base.clone().with_threads(1)).unwrap().run();
        let par = Simulator::new(base.with_threads(4)).unwrap().run();
        assert_eq!(seq, par, "multi-event fault runs must be bit-identical");
        assert!(seq.lost_streams > 0, "double failure must surface in metrics");
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

    #[test]
    fn degraded_cap_scales_nominal_capacity_by_surviving_disks() {
        let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_failure(20, DiskId(2));
        cfg.degraded_admission = true;
        let mut sim = Simulator::new(cfg).unwrap();
        let nominal = sim.nominal_capacity();
        let mut saw_down = false;
        for _ in 0..60 {
            let r = sim.step_report();
            if r.down_disks == 1 {
                saw_down = true;
                assert_eq!(r.degraded_cap, Some(nominal * 7 / 8));
            } else {
                assert_eq!(r.down_disks, 0);
                assert_eq!(r.degraded_cap, None, "healthy rounds carry no cap");
            }
        }
        assert!(saw_down, "the injected failure never took effect");
    }

    #[test]
    fn non_clustered_outage_caps_admission_at_zero() {
        let mut cfg = small_cfg(Scheme::NonClustered).with_failure(20, DiskId(1));
        cfg.degraded_admission = true;
        let mut sim = Simulator::new(cfg).unwrap();
        let mut down_rounds = 0u64;
        for _ in 0..60 {
            let r = sim.step_report();
            if r.down_disks > 0 {
                down_rounds += 1;
                assert_eq!(
                    r.degraded_cap,
                    Some(0),
                    "no redundancy ⇒ nothing is admissible while down"
                );
                assert_eq!(r.admissions, 0, "round {}: admitted under a zero cap", r.round);
            }
        }
        assert!(down_rounds > 0, "the injected failure never took effect");
    }

    #[test]
    fn second_concurrent_outage_caps_admission_at_zero() {
        // Disks 2 and 6 sit in different clusters, so each failure alone
        // is inside the designed tolerance — only their overlap trips the
        // beyond-tolerance zero cap.
        let faults = cms_fault::FaultSchedule::parse("@20 fail 2\n@24 fail 6\n").unwrap();
        let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_faults(faults);
        cfg.degraded_admission = true;
        let mut sim = Simulator::new(cfg).unwrap();
        let nominal = sim.nominal_capacity();
        let (mut single, mut double) = (0u64, 0u64);
        for _ in 0..60 {
            let r = sim.step_report();
            match r.down_disks {
                0 => assert_eq!(r.degraded_cap, None),
                1 => {
                    single += 1;
                    assert_eq!(r.degraded_cap, Some(nominal * 7 / 8));
                }
                _ => {
                    double += 1;
                    assert_eq!(r.degraded_cap, Some(0), "double outage must refuse all");
                    assert_eq!(r.admissions, 0, "round {}: admitted under a zero cap", r.round);
                }
            }
        }
        assert!(single > 0 && double > 0, "fault schedule never reached both states");
    }
}
