//! C-SCAN ordering of a round's block requests.
//!
//! Under C-SCAN the head services requests in ascending cylinder order; on
//! reaching the highest request it returns to the lowest outstanding one
//! and sweeps up again. Within a single round, requests are known up
//! front, so the order is: all requests at or above the head's starting
//! position (ascending), then a wrap, then the rest (ascending). The head
//! therefore "travels across the disk at most twice" — exactly the premise
//! of the paper's Equation 1, which charges `2·t_seek` per round.

use cms_core::{ClipId, DiskId};

/// One block retrieval request for a specific disk in the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// Disk the block lives on.
    pub disk: DiskId,
    /// Block number on that disk.
    pub block_no: u64,
    /// The clip the retrieval serves (parity reads use the clip they
    /// reconstruct for). Informational only: service timing never reads
    /// it, and a caller that does not track clips per read (the
    /// simulation engine) passes the placeholder `ClipId(u64::MAX)`.
    pub clip: ClipId,
    /// `true` when this is an extra retrieval triggered by a disk failure
    /// (a surviving data/parity block of some group under reconstruction).
    pub reconstruction: bool,
}

impl BlockRequest {
    /// A normal (non-reconstruction) request.
    #[must_use]
    pub fn new(disk: DiskId, block_no: u64, clip: ClipId) -> Self {
        BlockRequest { disk, block_no, clip, reconstruction: false }
    }

    /// A reconstruction request.
    #[must_use]
    pub fn reconstruction(disk: DiskId, block_no: u64, clip: ClipId) -> Self {
        BlockRequest { disk, block_no, clip, reconstruction: true }
    }
}

/// Orders the indices of `cylinders` into C-SCAN service order starting
/// from `head`: ascending cylinders ≥ `head` first, then ascending
/// cylinders < `head`.
///
/// Returns indices into the input slice. Stable for equal cylinders (FIFO
/// among same-cylinder requests).
#[must_use]
pub fn sweep_order(cylinders: &[u32], head: u32) -> Vec<usize> {
    let mut out = Vec::with_capacity(cylinders.len());
    sweep_order_into(cylinders, head, &mut out);
    out
}

/// Allocation-free [`sweep_order`]: clears and fills `out` with the
/// C-SCAN service order, reusing its capacity. This is the per-disk
/// per-round hot path (DESIGN.md §7): in steady state the buffer reaches
/// the round budget `q` once and never reallocates again.
///
/// Each request becomes one integer key, `(below head, cylinder, index)`
/// packed high to low into 1, 32 and 31 bits, so a single `sort_unstable`
/// over plain integers yields the sweep order: the requests at or above
/// the head first, each half by cylinder, equal cylinders by index. The
/// keys are unique, so the order is fully deterministic and identical to
/// a stable sort of each half on the cylinder alone. Masking the index
/// back out in place turns the sorted keys into the output.
// lint: hot
pub fn sweep_order_into(cylinders: &[u32], head: u32, out: &mut Vec<usize>) {
    out.clear();
    if usize::BITS < 64 || cylinders.len() > INDEX_MASK as usize + 1 {
        // The key does not fit a `usize`: sort indices on the same key.
        out.extend(0..cylinders.len());
        out.sort_unstable_by_key(|&i| (cylinders[i] < head, cylinders[i], i));
        return;
    }
    out.extend(cylinders.iter().enumerate().map(|(i, &c)| {
        (u64::from(c < head) << 63 | u64::from(c) << INDEX_BITS | i as u64) as usize
    }));
    out.sort_unstable();
    for key in out.iter_mut() {
        *key &= INDEX_MASK as usize;
    }
}

/// Bits of a [`sweep_order_into`] key that hold the request index.
const INDEX_BITS: u32 = 31;
/// Mask of the index bits of a [`sweep_order_into`] key.
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Total head travel (in cylinders) of a C-SCAN pass over `cylinders`
/// starting at `head`, counting the wrap-around as a seek from the top of
/// the first sweep to the bottom of the second.
#[must_use]
pub fn sweep_travel(cylinders: &[u32], head: u32) -> u64 {
    let order = sweep_order(cylinders, head);
    let mut pos = head;
    let mut travel: u64 = 0;
    for &i in &order {
        let c = cylinders[i];
        travel += u64::from(pos.abs_diff(c));
        pos = c;
    }
    travel
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_ascending_from_head() {
        let cyl = [50u32, 10, 90, 30, 70];
        let order = sweep_order(&cyl, 40);
        let served: Vec<u32> = order.iter().map(|&i| cyl[i]).collect();
        assert_eq!(served, vec![50, 70, 90, 10, 30]);
    }

    #[test]
    fn head_at_zero_is_one_sweep() {
        let cyl = [5u32, 3, 9, 1];
        let order = sweep_order(&cyl, 0);
        let served: Vec<u32> = order.iter().map(|&i| cyl[i]).collect();
        assert_eq!(served, vec![1, 3, 5, 9]);
    }

    #[test]
    fn empty_and_single_are_trivial() {
        assert!(sweep_order(&[], 100).is_empty());
        assert_eq!(sweep_order(&[42], 100), vec![0]);
    }

    #[test]
    fn equal_cylinders_keep_fifo_order() {
        let cyl = [7u32, 7, 7];
        assert_eq!(sweep_order(&cyl, 0), vec![0, 1, 2]);
        assert_eq!(sweep_order(&cyl, 8), vec![0, 1, 2]);
    }

    #[test]
    fn travel_at_most_two_strokes() {
        // The Equation-1 premise: C-SCAN travel never exceeds two full
        // strokes of the surface.
        let cyl: Vec<u32> = (0..100).map(|i| (i * 37) % 2000).collect();
        for head in [0u32, 500, 1999] {
            let travel = sweep_travel(&cyl, head);
            assert!(
                travel <= 2 * 1999,
                "travel {travel} exceeds two strokes from head {head}"
            );
        }
    }

    /// The two-pass, two-sort C-SCAN order that the packed-key sort
    /// replaced, kept as the oracle: the indices at or above the head,
    /// then those below it, each half sorted on `(cylinder, index)`.
    fn sweep_order_reference(cylinders: &[u32], head: u32) -> Vec<usize> {
        let mut out: Vec<usize> = (0..cylinders.len()).filter(|&i| cylinders[i] >= head).collect();
        let split = out.len();
        out.extend((0..cylinders.len()).filter(|&i| cylinders[i] < head));
        out[..split].sort_unstable_by_key(|&i| (cylinders[i], i));
        out[split..].sort_unstable_by_key(|&i| (cylinders[i], i));
        out
    }

    /// Cylinder sets up to a generous round budget: a narrow range that
    /// forces duplicate cylinders, or the whole `u32` range.
    fn cylinder_sets() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            prop::collection::vec(0u32..16, 0..129),
            prop::collection::vec(any::<u32>(), 0..129),
        ]
    }

    proptest! {
        /// The packed-key sort reproduces the reference order for heads
        /// below, inside and above every cylinder of the set.
        #[test]
        fn sweep_order_into_matches_two_sort_reference(
            cylinders in cylinder_sets(),
            probe in any::<u32>(),
            pick in 0usize..6,
        ) {
            let lo = cylinders.iter().copied().min().unwrap_or(0);
            let hi = cylinders.iter().copied().max().unwrap_or(0);
            let head = match pick {
                0 => 0,
                1 => lo,
                2 => hi,
                3 => hi.saturating_add(1),
                4 => u32::MAX,
                _ => probe,
            };
            let mut out = Vec::new();
            sweep_order_into(&cylinders, head, &mut out);
            prop_assert_eq!(out, sweep_order_reference(&cylinders, head));
        }
    }

    #[test]
    fn sweep_order_into_reuses_capacity() {
        // Steady state: a second fill of the same size must not grow the
        // buffer.
        let cyl: Vec<u32> = (0..64u32).map(|i| (i * 37) % 512).collect();
        let mut buf = Vec::new();
        sweep_order_into(&cyl, 100, &mut buf);
        let cap = buf.capacity();
        sweep_order_into(&cyl, 300, &mut buf);
        assert_eq!(buf.capacity(), cap, "reused fill must not reallocate");
    }

    #[test]
    fn request_constructors() {
        let r = BlockRequest::new(DiskId(2), 77, ClipId(5));
        assert!(!r.reconstruction);
        let r = BlockRequest::reconstruction(DiskId(2), 77, ClipId(5));
        assert!(r.reconstruction);
    }
}
