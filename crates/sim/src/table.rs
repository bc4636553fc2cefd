//! Struct-of-arrays stream table — the engine's hot client store
//! (DESIGN.md §7).
//!
//! The per-round pipeline touches every active stream several times a
//! round (issue, deliver, consume). A `BTreeMap<RequestId, Client>`
//! pays a pointer-chasing tree walk per touch; at thousands of streams
//! that dominates the round. The table instead keeps one contiguous
//! column per field, indexed by a dense **slot** id, so the round loops
//! are linear scans and every per-stream access is one bounds-checked
//! index.
//!
//! Identity and ordering are reconciled by three small side structures,
//! touched only at admission/completion rate (not per block):
//!
//! - `free` — slot free-list; completed slots are reused, columns never
//!   shrink, so steady-state rounds allocate nothing.
//! - `order` — `(RequestId, slot)` pairs sorted by id. Iterating it
//!   reproduces exactly the ascending-id iteration order of the old
//!   `BTreeMap`, which the determinism contract (trace byte equality)
//!   depends on. Removal does **not** edit `order`: the entry goes
//!   stale (its slot no longer carries its id) and is skipped by the
//!   [`StreamTable::live`] check, then swept out by
//!   [`StreamTable::maybe_compact`]. Request ids are never reused, so
//!   staleness needs no generation counters.
//! - `staged` — admissions made during a round's admission scan, in
//!   ascending-id order. [`StreamTable::flush_staged`] merges them into
//!   `order` in one pass (bulk `O(n + k)` instead of `k` mid-vector
//!   inserts).
//!
//! Each stream's block buffer is a fixed-stride window of one flat
//! `ring` column (see [`buffer_window`] for the stride), so delivering
//! and consuming a block is one indexed load or store. Blocks that land
//! behind the consumption cursor move to the cold `behind` set. The
//! reconstruction counters (`recon_pending`, one [`Countdown`] per lost
//! block) are touched only while a disk is down and stay small sorted
//! vectors whose capacity is retained across slot reuse — see the `sv_*`
//! helpers.

use cms_core::{RequestId, Scheme};
use cms_workload::ClipPlacement;
use std::collections::BTreeSet;

/// Sentinel stored in [`StreamTable::request`] for a free slot. Real
/// request ids count up from zero and never reach it.
pub(crate) const FREE: RequestId = RequestId(u64::MAX);

/// Sentinel stored in an empty [`StreamTable`] ring cell. Availability
/// rounds count up from one and never reach it.
const EMPTY: u64 = u64::MAX;

/// The most blocks a stream of `scheme` holds between its consumption
/// cursor and its fetch cursor, `issued − consumed`, at any point of a
/// round; `span` is the group span `k = p − m`. Every buffered block
/// that has not been consumed lies in `consumed..issued`, so a ring of
/// this many cells per stream holds them all without collision.
///
/// With `a` the admission round, block `i` is consumed in round
/// `a + i + 1`, so once round `t − 1` has consumed, `consumed ≥ t − 1 − a`:
///
/// - **Single-block schemes** fetch block `t − a` in round `t`, so
///   `issued ≤ t − a + 1` and the difference is at most 2 (double
///   buffering).
/// - **Group prefetch** fetches `k` blocks every `k` rounds from `a`. In
///   rounds `a + jk .. a + (j + 1)k`, `issued ≤ (j + 1)k` and
///   `consumed ≥ jk − 1`: at most `k + 1`.
/// - **Streaming RAID** fetches group `j` at the long-round boundary
///   `b + jk` and consumes block `i` in round `b + k + i`, so through the
///   long round `issued ≤ (j + 1)k` and `consumed ≥ (j − 1)k`: at most
///   `2k`.
///
/// Both cursors move with the round clock alone, whatever is delivered,
/// late or lost. `p ≤ d` bounds `k`, so `SimConfig::validate`'s disk
/// bound caps the window too.
pub(crate) fn buffer_window(scheme: Scheme, span: u64) -> u64 {
    match scheme {
        Scheme::StreamingRaid => 2 * span,
        scheme if scheme.prefetches_groups() => span + 1,
        _ => 2,
    }
}

/// The dense stream store. Columns are indexed by slot; all slots with
/// `request[slot] != FREE` are live.
pub(crate) struct StreamTable {
    /// Owning request per slot (`FREE` when the slot is on the free
    /// list). The staleness oracle for `order` entries and in-flight
    /// fetches alike.
    pub(crate) request: Vec<RequestId>,
    /// Clip placement being played.
    pub(crate) placement: Vec<ClipPlacement>,
    /// Round the stream was admitted.
    pub(crate) admitted_at: Vec<u64>,
    /// For streaming RAID: first long-round fetch boundary.
    pub(crate) first_boundary: Vec<u64>,
    /// Blocks whose fetches have been issued (count, in order).
    pub(crate) issued: Vec<u64>,
    /// Consumption progress (blocks, in order; skipped blocks count).
    pub(crate) consumed: Vec<u64>,
    /// The buffered blocks at or past `consumed`: `stride` cells per
    /// slot, block `idx` in cell `slot·stride + idx mod stride`, holding
    /// the round the block becomes available (`EMPTY` when absent).
    ring: Vec<u64>,
    /// Cells per slot in `ring`: [`buffer_window`] rounded up to a power
    /// of two.
    stride: usize,
    /// Occupied `ring` cells per slot.
    ring_len: Vec<u32>,
    /// Buffered blocks behind `consumed`, as `(slot, idx)`: left at a
    /// hiccup, or delivered after their consume round. Consumption never
    /// looks back, so only their count matters (`peak_buffered_blocks`).
    behind: BTreeSet<(u32, u64)>,
    /// Sorted `(idx, outstanding reads)` reconstruction counters.
    pub(crate) recon_pending: Vec<Vec<(u64, Countdown)>>,
    /// Reusable slots of completed/lost streams.
    free: Vec<u32>,
    /// Live iteration order: `(id, slot)` ascending by id, with lazy
    /// tombstones (entries whose slot no longer carries their id).
    pub(crate) order: Vec<(RequestId, u32)>,
    /// This round's admissions, ascending by id, awaiting the merge
    /// into `order`.
    staged: Vec<(RequestId, u32)>,
    /// Live stream count (`order` minus tombstones plus `staged`).
    live: usize,
    /// Tombstones currently in `order`.
    stale: usize,
}

impl StreamTable {
    /// An empty table whose streams each buffer at most `window` blocks
    /// ahead of consumption (see [`buffer_window`]).
    pub(crate) fn new(window: u64) -> Self {
        StreamTable {
            request: Vec::new(),
            placement: Vec::new(),
            admitted_at: Vec::new(),
            first_boundary: Vec::new(),
            issued: Vec::new(),
            consumed: Vec::new(),
            ring: Vec::new(),
            stride: window.max(1).next_power_of_two() as usize,
            ring_len: Vec::new(),
            behind: BTreeSet::new(),
            recon_pending: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            staged: Vec::new(),
            live: 0,
            stale: 0,
        }
    }

    /// Number of live streams.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Is `slot` still owned by `id`? `false` for out-of-range slots
    /// (e.g. the `u32::MAX` carried by rebuild fetches), freed slots,
    /// and slots reused by a later stream.
    #[inline]
    pub(crate) fn live(&self, id: RequestId, slot: u32) -> bool {
        self.request.get(slot as usize) == Some(&id)
    }

    /// Admits a stream: reuses a free slot or grows every column, and
    /// stages the `(id, slot)` pair for [`StreamTable::flush_staged`].
    /// Ids must arrive in ascending order within one staging window
    /// (the admission scan walks the id-sorted pending queue, so they
    /// do).
    pub(crate) fn admit(
        &mut self,
        id: RequestId,
        placement: ClipPlacement,
        admitted_at: u64,
        first_boundary: u64,
    ) -> u32 {
        debug_assert!(id != FREE, "sentinel id admitted");
        debug_assert!(
            self.staged.last().is_none_or(|&(prev, _)| prev < id),
            "staged admissions must arrive in ascending id order"
        );
        let slot = if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.request[i] = id;
            self.placement[i] = placement;
            self.admitted_at[i] = admitted_at;
            self.first_boundary[i] = first_boundary;
            self.issued[i] = 0;
            self.consumed[i] = 0;
            self.ring[i * self.stride..(i + 1) * self.stride].fill(EMPTY);
            self.ring_len[i] = 0;
            self.recon_pending[i].clear();
            slot
        } else {
            let slot = self.request.len() as u32;
            self.request.push(id);
            self.placement.push(placement);
            self.admitted_at.push(admitted_at);
            self.first_boundary.push(first_boundary);
            self.issued.push(0);
            self.consumed.push(0);
            self.ring.resize(self.ring.len() + self.stride, EMPTY);
            self.ring_len.push(0);
            self.recon_pending.push(Vec::new());
            slot
        };
        self.staged.push((id, slot));
        self.live += 1;
        slot
    }

    /// Merges this round's staged admissions into `order`, keeping it
    /// sorted by id. Bypass admission means a staged id may be *lower*
    /// than ids admitted in earlier rounds, so the general path is a
    /// true backward two-pointer merge (in-place, no scratch vector).
    // lint: hot
    pub(crate) fn flush_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        if self.order.last().is_none_or(|&(last, _)| last < self.staged[0].0) {
            // Common case: everything staged is newer than everything
            // ordered.
            self.order.extend_from_slice(&self.staged);
        } else {
            let old_len = self.order.len();
            self.order.extend_from_slice(&self.staged);
            // Backward merge: `i` walks the old run, `j` the staged run,
            // `k` the write cursor. `k` stays strictly ahead of `i`
            // while `j ≥ 0`, so the overwrites never clobber unread
            // entries.
            let mut i = old_len as isize - 1;
            let mut j = self.staged.len() as isize - 1;
            let mut k = self.order.len() as isize - 1;
            while j >= 0 {
                if i >= 0 && self.order[i as usize].0 > self.staged[j as usize].0 {
                    self.order[k as usize] = self.order[i as usize];
                    i -= 1;
                } else {
                    self.order[k as usize] = self.staged[j as usize];
                    j -= 1;
                }
                k -= 1;
            }
        }
        self.staged.clear();
        debug_assert!(
            self.order.windows(2).all(|w| w[0].0 < w[1].0),
            "order must stay strictly ascending by id"
        );
    }

    /// Releases a live stream's slot and drops its blocks behind
    /// consumption. `order`'s entry for `id` goes stale and is swept
    /// later by [`StreamTable::maybe_compact`].
    // lint: hot
    pub(crate) fn remove(&mut self, id: RequestId, slot: u32) {
        debug_assert!(self.live(id, slot), "removing a slot the id no longer owns");
        while let Some(&entry) = self.behind.range((slot, 0)..=(slot, u64::MAX)).next() {
            self.behind.remove(&entry);
        }
        self.request[slot as usize] = FREE;
        self.free.push(slot);
        self.live -= 1;
        self.stale += 1;
    }

    /// Slot lookup by id for the cold external paths (pause, resume).
    /// Binary search over `order` — valid because `order` is sorted by
    /// id and ids are unique even across tombstones.
    // lint: hot
    pub(crate) fn slot_of(&self, id: RequestId) -> Option<u32> {
        debug_assert!(self.staged.is_empty(), "lookup during an admission scan");
        let at = self.order.binary_search_by_key(&id, |&(oid, _)| oid).ok()?;
        let slot = self.order[at].1;
        self.live(id, slot).then_some(slot)
    }

    /// Sweeps tombstones out of `order` once they outnumber live
    /// entries (amortized O(1) per removal; in-place, allocation-free,
    /// preserves the ascending-id order of survivors).
    // lint: hot
    pub(crate) fn maybe_compact(&mut self) {
        debug_assert!(self.staged.is_empty(), "compaction during an admission scan");
        if self.stale >= 32 && self.stale * 2 >= self.order.len() {
            let request = &self.request;
            self.order.retain(|&(id, slot)| request.get(slot as usize) == Some(&id));
            self.stale = 0;
        }
    }

    /// Drops every stream and all retained capacity (the evacuation
    /// cold path).
    pub(crate) fn clear(&mut self) {
        self.request.clear();
        self.placement.clear();
        self.admitted_at.clear();
        self.first_boundary.clear();
        self.issued.clear();
        self.consumed.clear();
        self.ring.clear();
        self.ring_len.clear();
        self.behind.clear();
        self.recon_pending.clear();
        self.free.clear();
        self.order.clear();
        self.staged.clear();
        self.live = 0;
        self.stale = 0;
    }

    /// The round at which clip-block `idx` of the stream in `slot` is
    /// due for transmission. `span` is the group span `k = p − m` (the
    /// streaming-RAID long-round length).
    #[inline]
    // lint: hot
    pub(crate) fn consume_round(&self, slot: u32, idx: u64, scheme: Scheme, span: u64) -> u64 {
        match scheme {
            Scheme::StreamingRaid => self.first_boundary[slot as usize] + span + idx,
            _ => self.admitted_at[slot as usize] + idx + 1,
        }
    }

    /// Buffers block `idx` of `slot`, available from round `at`; a block
    /// already buffered keeps its earlier arrival.
    #[inline]
    // lint: hot
    pub(crate) fn buffer_block(&mut self, slot: u32, idx: u64, at: u64) {
        self.buffer(slot, idx, at, false);
    }

    /// Buffers block `idx` of `slot`, available from round `at`,
    /// replacing any earlier arrival (a completed reconstruction).
    pub(crate) fn rebuffer_block(&mut self, slot: u32, idx: u64, at: u64) {
        self.buffer(slot, idx, at, true);
    }

    #[inline]
    // lint: hot
    fn buffer(&mut self, slot: u32, idx: u64, at: u64, replace: bool) {
        let s = slot as usize;
        let consumed = self.consumed[s];
        if idx < consumed {
            // Landed after its consume round.
            self.behind.insert((slot, idx));
            return;
        }
        assert!(
            idx - consumed < self.stride as u64,
            "block {idx} is beyond the {}-block buffer window at {consumed}",
            self.stride
        );
        let cell = &mut self.ring[s * self.stride + (idx as usize & (self.stride - 1))];
        if *cell == EMPTY {
            *cell = at;
            self.ring_len[s] += 1;
        } else if replace {
            *cell = at;
        }
    }

    /// Consumes the stream's next block in round `now` and advances its
    /// cursor. Returns whether the block was buffered and available; a
    /// block buffered but not yet available (it landed this round) is
    /// left behind, still counted as buffered.
    #[inline]
    // lint: hot
    pub(crate) fn consume_next(&mut self, slot: u32, now: u64) -> bool {
        let s = slot as usize;
        let idx = self.consumed[s];
        self.consumed[s] = idx + 1;
        // The window invariant: this cell holds block `idx` or nothing.
        let cell = &mut self.ring[s * self.stride + (idx as usize & (self.stride - 1))];
        let at = std::mem::replace(cell, EMPTY);
        if at == EMPTY {
            return false;
        }
        self.ring_len[s] -= 1;
        if at > now {
            self.behind.insert((slot, idx));
            return false;
        }
        true
    }

    /// Blocks buffered at or past consumption by the stream in `slot`.
    #[inline]
    pub(crate) fn buffered_ahead(&self, slot: u32) -> u64 {
        u64::from(self.ring_len[slot as usize])
    }

    /// Blocks buffered behind consumption, over all live streams.
    pub(crate) fn buffered_behind(&self) -> u64 {
        self.behind.len() as u64
    }
}

/// `BTreeMap::get_mut` over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_get_mut<V>(map: &mut [(u64, V)], key: u64) -> Option<&mut V> {
    let at = map.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(&mut map[at].1)
}

/// `BTreeMap::insert` (upsert) over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_insert<V>(map: &mut Vec<(u64, V)>, key: u64, value: V) {
    match map.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(at) => map[at].1 = value,
        Err(at) => map.insert(at, (key, value)),
    }
}

/// `BTreeMap::remove` over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_remove<V>(map: &mut Vec<(u64, V)>, key: u64) -> Option<V> {
    let at = map.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(map.remove(at).1)
}

/// The survivor-read countdown of one block being reconstructed or
/// rebuilt: how many reads are still *expected to arrive* (strands lower
/// it) and how many are still *pending* (arrivals and strands both lower
/// it), packed 16/16 bits. The block decodes when nothing is pending; it
/// is lost once fewer than its decode threshold `k` can still arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Countdown(u32);

/// What stranding one pending read leaves of a block's decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strand {
    /// Fewer than `k` reads can still arrive: the block is unrecoverable.
    Lost,
    /// Every other read already arrived, and they suffice.
    Decoded,
    /// Enough reads will still arrive; some are pending.
    Waiting,
}

impl Countdown {
    /// A countdown awaiting `reads` survivor reads.
    #[inline]
    pub(crate) fn new(reads: u32) -> Self {
        debug_assert!(reads <= 0xFFFF, "countdown holds at most 0xFFFF reads");
        Countdown((reads << 16) | reads)
    }

    /// One expected read arrived (the expected half is untouched).
    /// Returns whether nothing is pending any more: the block decodes.
    #[inline]
    // lint: hot
    pub(crate) fn arrive(&mut self) -> bool {
        self.0 -= 1;
        self.0 & 0xFFFF == 0
    }

    /// One pending read was stranded by an outage and will never arrive.
    /// `k` is the block's decode threshold.
    pub(crate) fn strand(&mut self, k: u32) -> Strand {
        let expected = (self.0 >> 16) - 1;
        let pending = (self.0 & 0xFFFF) - 1;
        self.0 = (expected << 16) | pending;
        if expected < k {
            Strand::Lost
        } else if pending == 0 {
            Strand::Decoded
        } else {
            Strand::Waiting
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::ClipId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn placement(seed: u64) -> ClipPlacement {
        ClipPlacement { id: ClipId(seed % 11), stream: (seed % 5) as u32, start_index: seed, len: seed % 40 + 1 }
    }

    /// The buffer window the scripts run at: a ring stride of 4.
    const WINDOW: u64 = 3;

    /// One scripted mutation against both the table and the reference
    /// `BTreeMap` model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Admit `count` fresh streams in one staging window.
        Admit { count: u8 },
        /// Remove the `nth` live stream (mod live count).
        Remove { nth: u8 },
        /// Deliver block `consumed − 2 + off` (so up to two blocks behind
        /// consumption) to the `nth` live stream, available `lag` rounds
        /// from now; `replace` overwrites an earlier arrival.
        Deliver { nth: u8, off: u64, lag: u64, replace: bool },
        /// Consume the `nth` live stream's next block this round.
        Consume { nth: u8 },
        /// Mutate the `nth` live stream's reconstruction counters.
        Recon { nth: u8, idx: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u8..6).prop_map(|count| Op::Admit { count }),
            any::<u8>().prop_map(|nth| Op::Remove { nth }),
            (any::<u8>(), 0..WINDOW + 2, 0u64..3, any::<bool>())
                .prop_map(|(nth, off, lag, replace)| Op::Deliver { nth, off, lag, replace }),
            any::<u8>().prop_map(|nth| Op::Consume { nth }),
            (any::<u8>(), 0u64..50).prop_map(|(nth, idx)| Op::Recon { nth, idx }),
        ]
    }

    /// Per-stream reference state: placement, admission round, blocks
    /// consumed, and the buffer / recon-pending maps of the old engine.
    type ModelClient = (ClipPlacement, u64, u64, BTreeMap<u64, u64>, BTreeMap<u64, Countdown>);

    /// The model the table must be observationally equal to: the old
    /// engine's `BTreeMap<RequestId, Client>` with the fields the round
    /// pipeline reads.
    #[derive(Debug, Default)]
    struct Model {
        clients: BTreeMap<RequestId, ModelClient>,
    }

    impl Model {
        /// The `nth` live id (mod the live count), if any stream is live.
        fn nth(&self, nth: u8) -> Option<RequestId> {
            let len = self.clients.len();
            (len > 0).then(|| *self.clients.keys().nth(nth as usize % len).unwrap())
        }
    }

    proptest! {
        /// Replays random admission / removal / delivery / consumption
        /// scripts and checks that iteration order, membership, lookup,
        /// the ring buffer with its behind-consumption set, and the
        /// reconstruction counters all match the `BTreeMap` reference the
        /// engine used before the SoA refactor. Deliveries reach up to two
        /// blocks behind consumption, and a block consumed in the round it
        /// lands is left behind at the hiccup.
        #[test]
        fn table_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut table = StreamTable::new(WINDOW);
            let mut model = Model::default();
            let mut next_id = 0u64;
            let mut round = 0u64;
            for op in ops {
                match op {
                    Op::Admit { count } => {
                        for _ in 0..count {
                            let id = RequestId(next_id);
                            next_id += 1;
                            let pl = placement(next_id);
                            table.admit(id, pl, round, round + 3);
                            model
                                .clients
                                .insert(id, (pl, round, 0, BTreeMap::new(), BTreeMap::new()));
                        }
                        table.flush_staged();
                    }
                    Op::Remove { nth } => {
                        let Some(id) = model.nth(nth) else { continue };
                        model.clients.remove(&id);
                        let slot = table.slot_of(id).expect("model says live");
                        table.remove(id, slot);
                        table.maybe_compact();
                    }
                    Op::Deliver { nth, off, lag, replace } => {
                        let Some(id) = model.nth(nth) else { continue };
                        let (_, _, consumed, avail, _) = model.clients.get_mut(&id).unwrap();
                        let Some(idx) = (*consumed + off).checked_sub(2) else { continue };
                        let slot = table.slot_of(id).expect("model says live");
                        let at = round + lag;
                        if replace {
                            table.rebuffer_block(slot, idx, at);
                            avail.insert(idx, at);
                        } else {
                            table.buffer_block(slot, idx, at);
                            avail.entry(idx).or_insert(at);
                        }
                    }
                    Op::Consume { nth } => {
                        let Some(id) = model.nth(nth) else { continue };
                        let (_, _, consumed, avail, _) = model.clients.get_mut(&id).unwrap();
                        let slot = table.slot_of(id).expect("model says live");
                        // The old consume: take the block if it is
                        // available, else it is a hiccup and any entry
                        // stays in the map.
                        let expect = match avail.get(consumed) {
                            Some(&at) if at <= round => avail.remove(consumed).is_some(),
                            _ => false,
                        };
                        *consumed += 1;
                        prop_assert_eq!(table.consume_next(slot, round), expect);
                    }
                    Op::Recon { nth, idx } => {
                        let Some(id) = model.nth(nth) else { continue };
                        let (_, _, _, _, recon) = model.clients.get_mut(&id).unwrap();
                        let slot = table.slot_of(id).expect("model says live") as usize;
                        sv_insert(&mut table.recon_pending[slot], idx, Countdown::new(2));
                        recon.insert(idx, Countdown::new(2));
                        if let Some(n) = sv_get_mut(&mut table.recon_pending[slot], idx) {
                            n.arrive();
                        }
                        if let Some(n) = recon.get_mut(&idx) {
                            n.arrive();
                        }
                        if idx % 3 == 0 {
                            prop_assert_eq!(
                                sv_remove(&mut table.recon_pending[slot], idx),
                                recon.remove(&idx)
                            );
                        }
                    }
                }
                round += 1;
                // Observational equality after every op.
                prop_assert_eq!(table.len(), model.clients.len());
                let table_iter: Vec<RequestId> = table
                    .order
                    .iter()
                    .filter(|&&(id, slot)| table.live(id, slot))
                    .map(|&(id, _)| id)
                    .collect();
                let model_iter: Vec<RequestId> = model.clients.keys().copied().collect();
                prop_assert_eq!(&table_iter, &model_iter, "iteration order diverged");
                let mut behind = 0u64;
                for (&id, (pl, at, consumed, avail, recon)) in &model.clients {
                    let slot = table.slot_of(id).expect("live in model");
                    let s = slot as usize;
                    prop_assert_eq!(table.placement[s], *pl);
                    prop_assert_eq!(table.admitted_at[s], *at);
                    prop_assert_eq!(table.consumed[s], *consumed);
                    // Ahead of consumption: the ring cells hold exactly
                    // the model's entries, availability rounds included.
                    let ahead: Vec<(u64, u64)> =
                        avail.range(*consumed..).map(|(&k, &v)| (k, v)).collect();
                    let ring: Vec<(u64, u64)> = (*consumed..*consumed + table.stride as u64)
                        .filter_map(|idx| {
                            let cell = s * table.stride + (idx as usize & (table.stride - 1));
                            (table.ring[cell] != EMPTY).then_some((idx, table.ring[cell]))
                        })
                        .collect();
                    prop_assert_eq!(&ring, &ahead, "ring buffer diverged");
                    prop_assert_eq!(table.buffered_ahead(slot), ahead.len() as u64);
                    // Behind it: the same membership.
                    for &idx in avail.range(..*consumed).map(|(k, _)| k) {
                        prop_assert!(table.behind.contains(&(slot, idx)), "lost a block behind");
                        behind += 1;
                    }
                    let t_recon: Vec<(u64, Countdown)> =
                        recon.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(&table.recon_pending[s], &t_recon);
                }
                // Nothing else behind: removed streams took theirs along.
                prop_assert_eq!(table.buffered_behind(), behind);
                prop_assert_eq!(table.slot_of(RequestId(next_id)), None, "future id resolved");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the 4-block buffer window")]
    fn buffering_past_the_window_panics() {
        let mut table = StreamTable::new(WINDOW);
        let slot = table.admit(RequestId(0), placement(0), 0, 0);
        table.flush_staged();
        table.buffer_block(slot, 3, 1);
        table.buffer_block(slot, 4, 1);
    }

    #[test]
    fn countdown_strands_against_the_decode_threshold() {
        // Five survivors, k = 4: one strand still leaves four expected.
        let mut c = Countdown::new(5);
        assert!(!c.arrive());
        assert_eq!(c.strand(4), Strand::Waiting);
        assert!(!c.arrive());
        assert!(!c.arrive());
        assert!(c.arrive(), "the last pending arrival decodes the block");
        // Everything else already arrived: the strand completes the decode.
        let mut c = Countdown::new(2);
        assert!(!c.arrive());
        assert_eq!(c.strand(1), Strand::Decoded);
        // Single parity: any strand drops below k.
        let mut c = Countdown::new(3);
        assert_eq!(c.strand(3), Strand::Lost);
    }

    #[test]
    fn bypass_admissions_merge_below_existing_ids() {
        // Ids 0..10 arrive; 5 and 7 are "bypassed" (admitted later than
        // 8 and 9) — the flush must re-sort them into place.
        let mut table = StreamTable::new(WINDOW);
        for id in [0u64, 1, 2, 8, 9] {
            table.admit(RequestId(id), placement(id), 0, 0);
        }
        table.flush_staged();
        for id in [5u64, 7] {
            table.admit(RequestId(id), placement(id), 1, 2);
        }
        table.flush_staged();
        let ids: Vec<u64> = table.order.iter().map(|&(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 5, 7, 8, 9]);
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn slots_are_reused_and_stale_entries_skipped() {
        let mut table = StreamTable::new(WINDOW);
        for id in 0..4u64 {
            table.admit(RequestId(id), placement(id), 0, 0);
        }
        table.flush_staged();
        let slot1 = table.slot_of(RequestId(1)).unwrap();
        table.remove(RequestId(1), slot1);
        assert_eq!(table.len(), 3);
        assert_eq!(table.slot_of(RequestId(1)), None);
        // The freed slot is handed to the next admission; the stale
        // order entry for id 1 must not resolve to the newcomer.
        let slot4 = table.admit(RequestId(4), placement(4), 1, 1);
        table.flush_staged();
        assert_eq!(slot4, slot1);
        assert_eq!(table.slot_of(RequestId(1)), None);
        assert_eq!(table.slot_of(RequestId(4)), Some(slot4));
        assert!(!table.live(RequestId(1), slot1));
        assert!(table.live(RequestId(4), slot4));
    }
}
