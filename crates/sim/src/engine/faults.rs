//! Fault phase: the round-start fault drain, disk fail/repair, the
//! re-routing of reads stranded by a new outage, deterministic stream
//! loss, and the background-rebuild state machine.

use super::{emit, Simulator};
use crate::table::{sv_get_mut, Countdown, Strand};
use cms_core::{CmsError, DiskId, RequestId};
use cms_fault::FaultEvent;
use cms_layout::{Slot, StreamAddr};
use cms_trace::EventKind;
use std::collections::BTreeMap;

/// Background rebuild of a failed disk onto a hot spare: blocks of the
/// failed disk are reconstructed in order from their surviving group
/// members, using only bandwidth left over after client traffic
/// (rebuild reads sort last in each disk's EDF queue).
#[derive(Debug)]
pub(super) struct RebuildState {
    pub(super) disk: DiskId,
    /// Next failed-disk block number to schedule.
    pub(super) next_block: u64,
    /// Total blocks to rebuild (the disk's used prefix).
    pub(super) total: u64,
    /// block_no → source-read countdown before the block is rebuilt.
    pub(super) outstanding: BTreeMap<u64, Countdown>,
    /// Blocks fully rebuilt so far.
    pub(super) rebuilt: u64,
}

impl Simulator {
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

    pub(super) fn check_rebuild_complete(&mut self) {
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

    /// Promotes the next failed disk waiting for the single rebuild slot
    /// — the only place a [`RebuildState`] is created.
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

    /// Retires rebuild block `block_no` whose sources are settled:
    /// `decoded` when they sufficed, otherwise a counted hole.
    pub(super) fn settle_rebuild_block(&mut self, block_no: u64, decoded: bool) {
        let Some(rb) = &mut self.rebuild else { return };
        rb.outstanding.remove(&block_no);
        rb.rebuilt += 1;
        if decoded {
            self.metrics.rebuilt_blocks += 1;
            self.check_rebuild_complete();
        } else {
            self.metrics.unrecoverable_blocks += 1;
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
            // The queue is empty whenever the slot is free, so this
            // starts the disk's rebuild at once or parks it behind the
            // running one.
            debug_assert!(self.rebuild.is_some() || self.rebuild_pending.is_empty());
            self.rebuild_pending.push(disk);
            self.start_next_rebuild();
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
        let stranded = std::mem::take(&mut self.queues[disk.idx()]);
        for fetch in stranded {
            if let Some(idx) = fetch.recon_for() {
                // This read was reconstructing `idx` from survivors;
                // losing a survivor means one fewer shard will ever
                // arrive. Fatal iff the rest cannot reach the decode
                // threshold (always, under single-parity `m = 1`).
                self.strand_recon(fetch.client, fetch.slot, idx);
                continue;
            }
            if let Some(idx) = fetch.serves() {
                self.schedule_recovery(fetch.client, fetch.slot, idx, fetch.needed);
            }
            if let Some(block_no) = fetch.rebuild_for() {
                self.abandon_rebuild_block(block_no);
            }
        }
    }

    /// Deterministically terminates a stream whose due block became
    /// unreconstructable (a second failure in its parity group). The
    /// client is removed and counted — never silently mis-served.
    pub(super) fn lose_stream(&mut self, id: RequestId, slot: u32, block: u64) {
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

    /// The decode threshold `k` of the group holding `slot`'s block:
    /// its data width, which for a tail group can be narrower than the
    /// configured span. Zero for a free slot.
    fn decode_threshold(&self, slot: Slot) -> u32 {
        let gid = match slot {
            Slot::Free => return 0,
            Slot::Data(addr) => self.layout.group_id_of(addr),
            Slot::Parity(gid) => gid,
        };
        self.layout.group(gid).data.len() as u32
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
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let k = self.decode_threshold(Slot::Data(addr));
        let Some(countdown) = sv_get_mut(&mut self.table.recon_pending[slot as usize], idx) else {
            self.lose_stream(id, slot, idx);
            return;
        };
        match countdown.strand(k) {
            Strand::Lost => self.lose_stream(id, slot, idx),
            Strand::Decoded => self.complete_reconstruction(id, slot, idx),
            Strand::Waiting => {}
        }
    }

    /// Drops a rebuild block whose in-flight source reads were stranded
    /// by a further outage — unless enough expected source reads remain
    /// to decode it (`m ≥ 2` spare redundancy). Unrecoverable holes are
    /// counted, never silently filled.
    fn abandon_rebuild_block(&mut self, block_no: u64) {
        let Some(disk) = self.rebuild.as_ref().map(|rb| rb.disk) else { return };
        let k = self.decode_threshold(self.layout.slot(disk, block_no));
        let Some(rb) = &mut self.rebuild else { return };
        let Some(countdown) = rb.outstanding.get_mut(&block_no) else { return };
        match countdown.strand(k) {
            Strand::Lost => self.settle_rebuild_block(block_no, false),
            Strand::Decoded => self.settle_rebuild_block(block_no, true),
            Strand::Waiting => {}
        }
    }

    /// Round-start fault processing on the coordinating thread (so the
    /// whole round observes a settled array): expire transient and slow
    /// windows, apply the legacy single-failure scenario, then drain
    /// every scheduled event due this round, in schedule order.
    pub(super) fn apply_faults(&mut self) {
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
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::small_cfg;
    use crate::Simulator;
    use cms_core::{DiskId, Scheme};

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
}
