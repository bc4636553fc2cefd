//! Delivery and consumption phases: served fetches land in their
//! stream's buffer (or advance a reconstruction or rebuild countdown),
//! completed reconstructions are optionally byte-verified through the
//! group's codec, and every stream consumes its due blocks — a block
//! missing when its round comes is a hiccup.

use super::{emit, Fetch, Simulator};
use crate::table::{sv_get_mut, sv_remove, Countdown};
use cms_core::RequestId;
use cms_layout::StreamAddr;
use cms_parity::{codec_for, Block, ErasureCodec};
use cms_trace::EventKind;
use cms_workload::ClipPlacement;

/// Reusable state for the parity-verification path: the codecs, one
/// contiguous `k + m` shard pool (data first, then redundancy), the
/// reconstruction output and the expected content. All blocks keep their
/// capacity across verifications.
#[derive(Default)]
pub(super) struct VerifyScratch {
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

impl Simulator {
    // lint: hot
    pub(super) fn deliver(&mut self, fetch: Fetch) {
        self.metrics.blocks_fetched += 1;
        if let Some(block_no) = fetch.rebuild_for() {
            let decoded = self
                .rebuild
                .as_mut()
                .and_then(|rb| rb.outstanding.get_mut(&block_no))
                .is_some_and(Countdown::arrive);
            if decoded {
                self.settle_rebuild_block(block_no, true);
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
                    block: fetch.serves().or(fetch.recon_for()).unwrap_or(0),
                },
            );
        }
        if !self.table.live(fetch.client, fetch.slot) {
            return; // client already completed (stale recovery read)
        }
        if let Some(idx) = fetch.serves() {
            self.table.buffer_block(fetch.slot, idx, self.t + 1);
        }
        if let Some(idx) = fetch.recon_for() {
            let pending = &mut self.table.recon_pending[fetch.slot as usize];
            if sv_get_mut(pending, idx).is_some_and(Countdown::arrive) {
                self.complete_reconstruction(fetch.client, fetch.slot, idx);
            }
        }
    }

    /// The last pending survivor read for block `idx` of `(id, slot)`
    /// arrived (or was harmlessly stranded): the block decodes. Makes it
    /// available next round and runs the optional byte-level
    /// verification.
    pub(super) fn complete_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64) {
        let s = slot as usize;
        sv_remove(&mut self.table.recon_pending[s], idx);
        self.table.rebuffer_block(slot, idx, self.t + 1);
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
    pub(super) fn consume_and_complete(&mut self) {
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
                if self.table.consume_next(slot, self.t) {
                    self.metrics.blocks_consumed += 1;
                } else {
                    // Not in the buffer when its round came: the
                    // playback glitch the guarantee schemes must never
                    // produce.
                    self.metrics.hiccups += 1;
                    let hiccup = EventKind::Hiccup { request: id.raw(), block: idx };
                    emit(&mut self.tracer, self.t, hiccup);
                }
            }
            buffered += self.table.buffered_ahead(slot);
            if self.table.consumed[s] >= len {
                done.push((id, slot));
            }
        }
        // Blocks left behind consumption stay buffered until their
        // stream ends.
        buffered += self.table.buffered_behind();
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
