//! Arrival and admission phases: the request queue (generated arrivals
//! and the external session API) and the bounded-bypass admission scan.

use super::{emit, Simulator};
use cms_admission::AdmitRequest;
use cms_core::{ClipId, CmsError, DiskId, RequestId, Round, Scheme};
use cms_layout::StreamAddr;
use cms_trace::EventKind;

/// A queued unit of playback: a clip, possibly resumed from an offset
/// (VCR resume re-queues the remainder of the clip for admission).
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingPlay {
    pub(super) clip: ClipId,
    /// Blocks already consumed before the (re-)queueing.
    pub(super) offset: u64,
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
pub(super) struct PausedClient {
    clip: ClipId,
    consumed: u64,
}

impl Simulator {
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

    /// `offset` aligned down to the scheme's group boundary: the
    /// group-fetching schemes restart playback at a group start, so a
    /// resumed or migrated viewer may re-watch up to `k−1` blocks.
    fn group_aligned(&self, offset: u64) -> u64 {
        let span = self.group_span();
        if self.cfg.scheme.prefetches_groups() {
            (offset / span) * span
        } else {
            offset
        }
    }

    /// Allocates the next request id and queues `clip` from `offset` in
    /// the FIFO pending list.
    fn enqueue(&mut self, clip: ClipId, offset: u64) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), self.pending_play(clip, offset));
        id
    }

    /// Queues a new request (generated or submitted) and records its
    /// arrival.
    fn arrive(&mut self, clip: ClipId, offset: u64) -> RequestId {
        let id = self.enqueue(clip, offset);
        self.metrics.arrivals += 1;
        emit(&mut self.tracer, self.t, EventKind::Arrival { request: id.raw(), clip: clip.raw() });
        id
    }

    /// Submits an external playback request for `clip` (in addition to —
    /// or instead of, when `arrival_rate` is 0 — the generated workload).
    /// The request queues in the FIFO pending list like any arrival.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] for an unknown clip id.
    pub fn submit(&mut self, clip: ClipId) -> Result<RequestId, CmsError> {
        self.submit_at(clip, 0)
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
    /// Returns the new request id tracking the resumed playback. A
    /// resume is not a new arrival.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if `id` is not paused.
    pub fn resume(&mut self, id: RequestId) -> Result<RequestId, CmsError> {
        let Some(parked) = self.paused.remove(&id) else {
            return Err(CmsError::invalid_params(format!("{id} is not paused")));
        };
        let offset = self.group_aligned(parked.consumed);
        Ok(self.enqueue(parked.clip, offset))
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
        let offset = self.group_aligned(offset);
        Ok(self.arrive(clip, offset))
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
        self.queues.iter_mut().chain(&mut self.incoming).for_each(Vec::clear);
        self.rebuild = None;
        self.rebuild_pending.clear();
        dropped
    }

    pub(super) fn generate_arrivals(&mut self) {
        for _ in 0..self.arrivals.next_round() {
            let clip = self.choice.next_clip();
            self.arrive(clip, 0);
        }
    }

    /// The maximum active-stream count while degraded, when enforcement
    /// is on and any disk is down: the scheme's fault-free capacity
    /// ([`cms_admission::Admission::nominal_capacity`]) scaled by the
    /// surviving-disk fraction — the lost disk's share of the array is
    /// withheld so survivors keep contingency headroom for its recovery
    /// reads — and zero for NonClustered (no redundancy to serve through
    /// an outage) or more concurrent outages than the code's `m`
    /// redundancy shards are designed to tolerate.
    pub(super) fn degraded_cap(&self) -> Option<u64> {
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

    /// Admission with bounded FIFO bypass (cf. ORS96): requests are
    /// considered in arrival order; a request whose resources are free is
    /// admitted even if earlier ones are blocked — *unless* the head has
    /// aged past [`crate::SimConfig::aging_limit`], in which case nothing
    /// may overtake it. Bypass keeps the disks busy; the aging guard keeps
    /// the policy starvation-free (a head's wait is bounded by the limit
    /// plus one clip duration).
    pub(super) fn admit_from_head(&mut self) {
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
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::small_cfg;
    use crate::Simulator;
    use cms_core::{ClipId, DiskId, RequestId, Scheme};

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
