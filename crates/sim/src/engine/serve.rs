//! Flush and serve phases: each disk's staged fetches are merged into
//! its `(needed, seq)`-ordered EDF queue, then every disk drains up to
//! its round budget in C-SCAN order. The sequential merge walks the
//! disks in ID order and hands each served fetch to delivery.

use super::{emit, Fetch, Simulator};
use cms_core::{ClipId, Scheme};
use cms_disk::{BlockRequest, Disk, RoundOutcome, ServiceContext};
use cms_trace::EventKind;

/// The locally-computed summary of draining one disk's queue for one
/// round. The variable-size payloads (served fetches, trace events) live
/// in the disk's [`RoundScratch`]; this struct carries only the `Copy`
/// accounting, so phase one can write results into a pre-sized slot
/// without touching the allocator.
#[derive(Clone, Copy, Default)]
pub(super) struct DiskRound {
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
pub(super) struct RoundScratch {
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
    pub(super) fn with_budget(budget: usize) -> Self {
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
    // The engine tracks reads per stream, not per clip, and the disk
    // model never reads `clip`: every request carries the documented
    // placeholder.
    scratch.requests.extend(scratch.served.iter().map(|f| BlockRequest {
        disk: disk.id,
        block_no: f.loc.block_no,
        clip: ClipId(u64::MAX),
        reconstruction: f.recon_for().is_some(),
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

impl Simulator {
    /// Merges one disk's staging row into its EDF queue. Both runs are
    /// sorted by `(needed, seq)` — the staging row after one
    /// `sort_unstable` (unique seq stamps: no ties, so instability is
    /// irrelevant), the queue by induction — so a single backward
    /// two-pointer merge restores the global order in O(n + k) moves.
    /// Equivalent to, and replacing, k ordered mid-vector inserts of
    /// O(n) each.
    // lint: hot
    pub(super) fn flush_disk(&mut self, disk: usize) {
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
    pub(super) fn execute_disks(&mut self) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NO_BLOCK;
    use cms_core::{DiskId, DiskParams, RequestId};
    use cms_disk::{DiskArray, TimingModel};
    use cms_layout::BlockLocation;
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
                clip: ClipId(u64::MAX),
                reconstruction: f.recon_for().is_some(),
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
                        loc: BlockLocation { disk: DiskId(0), block_no },
                        needed,
                        seq,
                        serves: if recon { NO_BLOCK } else { block_no },
                        recon_for: if recon { block_no } else { NO_BLOCK },
                        rebuild_for: NO_BLOCK,
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
}
