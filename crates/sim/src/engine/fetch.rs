//! Fetch phase: every active stream issues its next block read(s) per
//! the scheme's retrieval policy, reads bound for a down disk are
//! replaced by recovery reads, and the background rebuild issues its
//! lowest-priority source reads. Every read is staged per disk by
//! [`Simulator::push_fetch`] for the serve phase's EDF merge.

use super::{emit, Fetch, Simulator, NO_BLOCK};
use crate::table::{sv_insert, Countdown};
use cms_core::{RequestId, Scheme};
use cms_layout::{BlockLocation, Slot, StreamAddr};
use cms_trace::EventKind;

impl Simulator {
    /// Feeds the background rebuild: keeps a bounded window of failed-disk
    /// blocks in flight, each rebuilt by reading its surviving group
    /// members at the lowest priority.
    pub(super) fn schedule_rebuild(&mut self) {
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
                Slot::Free => {}
                Slot::Data(addr) => {
                    self.layout.reconstruction_reads_into(addr, &mut reads);
                }
                Slot::Parity(gid) => {
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
            let array = &self.array;
            reads.retain(|l| !array.is_down(l.disk));
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
            rb.outstanding.insert(block_no, Countdown::new(reads.len() as u32));
            batch.extend(reads.iter().map(|&loc| (block_no, loc)));
        }
        for &(block_no, loc) in &batch {
            debug_assert!(!self.is_down(loc.disk), "rebuild read routed to a down disk");
            self.metrics.rebuild_reads += 1;
            self.metrics.disk_rebuild_reads[loc.disk.idx()] += 1;
            // No stream, and the lowest EDF priority: slack only.
            let read = Fetch::read(RequestId(u64::MAX), u32::MAX, loc, u64::MAX);
            self.push_fetch(Fetch { rebuild_for: block_no, ..read });
        }
        self.scratch.rebuild_batch = batch;
        self.scratch.reads = reads;
        if let Some(rb) = &self.rebuild {
            let (rebuilt, total) = (rb.rebuilt, rb.total);
            emit(&mut self.tracer, self.t, EventKind::RebuildProgress { rebuilt, total });
        }
        self.check_rebuild_complete();
    }

    // lint: hot
    pub(super) fn schedule_fetches(&mut self) {
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
            let issued_to = if scheme.prefetches_groups() {
                // Group fetch every k rounds: staggered from admission
                // for the pre-fetching schemes; lock-step long rounds
                // from the first boundary, parity included, for
                // streaming RAID.
                let streaming = scheme == Scheme::StreamingRaid;
                let start = if streaming { first_boundary } else { admitted_at };
                if self.t < start || !(self.t - start).is_multiple_of(span) {
                    continue;
                }
                let group_end = (issued + span).min(placement.len);
                self.issue_group_fetch(id, slot, issued, group_end, streaming);
                group_end
            } else {
                // Double-buffered single-block retrieval: one block per
                // round, in lock-step with admission's rotation model;
                // recovery reads stand in when the block's disk is down.
                if self.t < admitted_at + issued {
                    continue;
                }
                let needed = self.table.consume_round(slot, issued, scheme, span);
                let addr = StreamAddr::new(placement.stream, placement.start_index + issued);
                let loc = self.layout.locate(addr);
                if self.is_down(loc.disk) {
                    self.schedule_recovery(id, slot, issued, needed);
                } else {
                    self.push_fetch(Fetch { serves: issued, ..Fetch::read(id, slot, loc, needed) });
                }
                issued + 1
            };
            if self.table.live(id, slot) {
                self.table.issued[s] = issued_to;
            }
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
            let due = self.table.consume_round(slot, idx, scheme, span);
            let needed = lost_needed.map_or(due, |ln| due.min(ln));
            let recon_for = recon_first.unwrap_or(NO_BLOCK);
            self.push_fetch(Fetch { serves: idx, recon_for, ..Fetch::read(id, slot, loc, needed) });
        }
        // Redundancy reads: always for streaming RAID; on failure for
        // the pre-fetching schemes (unless only redundancy disks died,
        // in which case the data is all there and nothing is lost).
        if with_parity || !lost.is_empty() {
            for &r_loc in &redundancy {
                let needed = lost_needed
                    .unwrap_or_else(|| self.table.consume_round(slot, start, scheme, span));
                match recon_first {
                    Some(idx) => self.issue_recovery_read(id, slot, r_loc, needed, idx),
                    None => self.push_fetch(Fetch::read(id, slot, r_loc, needed)),
                }
            }
        }
        // Reconstruction waits for every surviving group read that
        // carries recon_for: the healthy siblings of this fetch plus the
        // alive redundancy shards. The first lost block rides on the
        // group fetch itself; additional lost blocks (`m ≥ 2` with
        // multiple failures in one cluster) each get their own
        // reconstruction stream: dedicated recovery reads of the same
        // survivors, accounted per block.
        let survivors = (healthy.len() + redundancy.len()) as u32;
        debug_assert!(lost.is_empty() || survivors > 0, "undecodable groups are declared lost above");
        for (nth, &idx) in lost.iter().enumerate() {
            if nth > 0 {
                let needed = self.table.consume_round(slot, idx, scheme, span);
                for &loc in healthy.iter().map(|(_, loc)| loc).chain(&redundancy) {
                    self.issue_recovery_read(id, slot, loc, needed, idx);
                }
            }
            self.await_reconstruction(id, slot, idx, survivors);
        }
        self.scratch.lost = lost;
        self.scratch.healthy = healthy;
        self.scratch.redundancy = redundancy;
    }

    /// Schedules the declustered/non-clustered recovery reads that rebuild
    /// clip block `idx` after its disk failed.
    pub(super) fn schedule_recovery(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
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
        for &loc in &reads {
            self.issue_recovery_read(id, slot, loc, needed, idx);
        }
        let survivors = reads.len() as u32;
        self.scratch.reads = reads;
        self.await_reconstruction(id, slot, idx, survivors);
    }

    /// Issues one survivor read of `loc` toward reconstructing block
    /// `idx` of `(id, slot)`, counted per disk and traced as a
    /// `RecoveryRead`.
    fn issue_recovery_read(
        &mut self,
        id: RequestId,
        slot: u32,
        loc: BlockLocation,
        needed: u64,
        idx: u64,
    ) {
        self.push_fetch(Fetch { recon_for: idx, ..Fetch::read(id, slot, loc, needed) });
        self.metrics.recovery_reads += 1;
        self.metrics.disk_recovery_reads[loc.disk.idx()] += 1;
        emit(
            &mut self.tracer,
            self.t,
            EventKind::RecoveryRead { request: id.raw(), disk: loc.disk.raw(), block: idx },
        );
    }

    /// Arms block `idx`'s decode countdown: it reconstructs once all
    /// `survivors` reads carrying `recon_for = idx` have arrived. The
    /// fan-out feeds the trace summary's histogram.
    fn await_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64, survivors: u32) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.record_recovery_fanout(u64::from(survivors));
        }
        if self.table.live(id, slot) {
            sv_insert(&mut self.table.recon_pending[slot as usize], idx, Countdown::new(survivors));
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
    pub(super) fn push_fetch(&mut self, mut fetch: Fetch) {
        debug_assert!(!self.is_down(fetch.loc.disk), "fetch routed to a down disk");
        fetch.seq = self.fetch_seq;
        self.fetch_seq += 1;
        self.incoming[fetch.loc.disk.idx()].push(fetch);
    }
}
