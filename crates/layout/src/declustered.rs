//! Declustered-parity placement (Section 4.1, Figure 2) and its
//! super-clip variant for the dynamic reservation scheme (Section 5.1).
//!
//! The single-stream builder implements Procedure `placement()` verbatim:
//! the `i`-th data block goes on disk `i mod d`, in the lowest-numbered
//! disk block of row `j = ⌊i/d⌋ mod r` (i.e. block number `j + n·r` for
//! minimal `n`) that is not a parity block and not yet allocated.
//!
//! The super-clip builder differs only in pinning stream `k` to row `k`:
//! its `i`-th block goes on disk `i mod d` at block number `k + n·r`.
//!
//! Parity groups: within each *window* of `r` consecutive disk blocks, the
//! blocks mapped to the same PGT set form a group; the parity member
//! rotates through the set's disks across windows (see
//! [`Pgt::parity_disk`]).

use crate::materialized::{check_capacity, GroupTable, MaterializedLayout};
use crate::types::{BlockLocation, StreamAddr};
use cms_bibd::Pgt;
use cms_core::{CmsError, Scheme};

/// Builds the single-stream declustered layout with `num_data_blocks`
/// blocks placed (Scheme: [`Scheme::DeclusteredParity`]).
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] if the layout is too large to
/// address or assembly invariants fail (which would indicate a
/// construction bug, not bad input).
pub fn build(pgt: &Pgt, num_data_blocks: u64) -> Result<MaterializedLayout, CmsError> {
    check_capacity(1, num_data_blocks)?;
    Builder::new(pgt, Order::Concatenated(num_data_blocks)).finish(Scheme::DeclusteredParity)
}

/// Builds the `r`-super-clip layout of the dynamic reservation scheme:
/// stream `k` holds `blocks_per_stream` data blocks, all mapped to PGT
/// row `k` (Scheme: [`Scheme::DynamicReservation`]).
///
/// # Errors
///
/// As for [`build`].
pub fn build_super_clips(
    pgt: &Pgt,
    blocks_per_stream: u64,
) -> Result<MaterializedLayout, CmsError> {
    check_capacity(u64::from(pgt.rows()), blocks_per_stream)?;
    Builder::new(pgt, Order::SuperClips(blocks_per_stream)).finish(Scheme::DynamicReservation)
}

/// The order data blocks are placed in, which is also stream order.
#[derive(Clone, Copy)]
enum Order {
    /// One stream; block `i` goes to disk `i mod d`, row `⌊i/d⌋ mod r`.
    Concatenated(u64),
    /// `r` streams of this many blocks; stream `k`'s block `i` goes to
    /// disk `i mod d`, row `k`.
    SuperClips(u64),
}

impl Order {
    /// Visits every data block in stream order as
    /// `(stream, index, disk, row)`.
    fn walk(self, d: u32, r: u32, mut visit: impl FnMut(usize, usize, u32, u32)) {
        match self {
            Order::Concatenated(n) => {
                let (mut disk, mut row) = (0, 0);
                for i in 0..n as usize {
                    visit(0, i, disk, row);
                    disk += 1;
                    if disk == d {
                        disk = 0;
                        row += 1;
                        if row == r {
                            row = 0;
                        }
                    }
                }
            }
            Order::SuperClips(n) => {
                for k in 0..r {
                    let mut disk = 0;
                    for i in 0..n as usize {
                        visit(k as usize, i, disk, k);
                        disk += 1;
                        if disk == d {
                            disk = 0;
                        }
                    }
                }
            }
        }
    }
}

/// Placement state of one PGT cell `(row, disk)`: the disk blocks
/// `row + w·r` of successive windows `w`.
#[derive(Clone, Copy)]
struct Cell {
    /// The set at this cell.
    set: u32,
    /// Member count of `set`: this disk holds the set's parity in every
    /// `period`-th window.
    period: u32,
    /// Next window to try for data.
    next: u32,
    /// Next window holding this set's parity on this disk.
    parity: u32,
}

impl Cell {
    /// Claims the first non-parity window at or after `next` (Figure 2's
    /// `n`-search; parity windows are at least two apart).
    fn take_window(&mut self) -> u32 {
        if self.next == self.parity {
            self.next += 1;
            self.parity += self.period;
        }
        self.next += 1;
        self.next - 1
    }
}

/// Shared construction for both declustered builders.
struct Builder<'a> {
    pgt: &'a Pgt,
    order: Order,
    d: u32,
    r: u32,
    /// `cells[row·d + disk]`.
    cells: Vec<Cell>,
    /// `member_rows[off[set] + pos]` = the row holding `set` in the column
    /// of its `pos`-th member disk.
    member_rows: Vec<u32>,
    off: Vec<usize>,
}

impl<'a> Builder<'a> {
    fn new(pgt: &'a Pgt, order: Order) -> Self {
        let (d, r) = (pgt.disks(), pgt.rows());
        let mut off = Vec::with_capacity(pgt.num_sets() + 1);
        off.push(0);
        for set in 0..pgt.num_sets() {
            off.push(off[set] + pgt.members(set).len());
        }
        let mut member_rows = vec![0; off[pgt.num_sets()]];
        let mut cells = Vec::with_capacity(d as usize * r as usize);
        for row in 0..r {
            for disk in 0..d {
                let set = pgt.set_at(row, disk);
                let members = pgt.members(set);
                let pos = members.partition_point(|&m| m < disk);
                member_rows[off[set] + pos] = row;
                // Parity descends through the member list (see
                // `Pgt::parity_disk`): member `pos` holds it in windows
                // `len − 1 − pos (mod len)`.
                let period = members.len() as u32;
                let phase = period - 1 - pos as u32;
                cells.push(Cell { set: set as u32, period, next: 0, parity: phase });
            }
        }
        Builder { pgt, order, d, r, cells, member_rows, off }
    }

    /// Places the data, enumerates parity groups in `(set, window)` order
    /// with a counting sort straight into the flat group table, and
    /// assembles the layout.
    fn finish(self, scheme: Scheme) -> Result<MaterializedLayout, CmsError> {
        let (d, r) = (self.d as usize, u64::from(self.r));
        let (num_streams, len) = match self.order {
            Order::Concatenated(n) => (1, n as usize),
            Order::SuperClips(n) => (self.r as usize, n as usize),
        };
        let mut streams: Vec<Vec<BlockLocation>> =
            (0..num_streams).map(|_| Vec::with_capacity(len)).collect();
        // `group_of` carries each block's window, then its (set, window)
        // key, then its group id.
        let mut group_of: Vec<Vec<u32>> =
            (0..num_streams).map(|_| Vec::with_capacity(len)).collect();
        let mut cells = self.cells;
        self.order.walk(self.d, self.r, |s, _, disk, row| {
            let window = cells[row as usize * d + disk as usize].take_window();
            streams[s].push(BlockLocation::new(disk, u64::from(row) + u64::from(window) * r));
            group_of[s].push(window);
        });

        // Keys: set `s` owns `base[s] .. base[s + 1]`, one per window up
        // to the last any of its cells reached.
        let num_sets = self.pgt.num_sets();
        let mut base = vec![0u32; num_sets + 1];
        for cell in &cells {
            let extent = &mut base[cell.set as usize + 1];
            *extent = (*extent).max(cell.next);
        }
        for s in 0..num_sets {
            base[s + 1] += base[s];
        }
        let mut counts = vec![0u32; base[num_sets] as usize];
        self.order.walk(self.d, self.r, |s, i, disk, row| {
            let set = cells[row as usize * d + disk as usize].set as usize;
            let key = base[set] + group_of[s][i];
            group_of[s][i] = key;
            counts[key as usize] += 1;
        });

        // Groups are the non-empty keys in key order; `counts` turns into
        // the key → group id map and `start` collects member offsets.
        let total = num_streams * len;
        let mut groups = GroupTable::with_capacity(1, counts.len(), total);
        let mut end = 0;
        for set in 0..num_sets {
            let members = self.pgt.members(set);
            let rows = &self.member_rows[self.off[set]..self.off[set + 1]];
            let last = members.len().saturating_sub(1);
            let mut pos = last; // parity member in window 0
            for (window, key) in (base[set]..base[set + 1]).enumerate() {
                let count = &mut counts[key as usize];
                if *count > 0 {
                    end += *count;
                    *count = groups.start.len() as u32 - 1;
                    groups.start.push(end);
                    let block_no = u64::from(rows[pos]) + window as u64 * r;
                    groups.redundancy.push(BlockLocation::new(members[pos], block_no));
                }
                pos = if pos == 0 { last } else { pos - 1 };
            }
        }
        // Scatter members in stream order (so each group's run is sorted),
        // using `start[g]` as group `g`'s write cursor; afterwards each
        // cursor sits at the next group's start, so shift back by one.
        groups.members.resize(total, StreamAddr::new(0, 0));
        for (s, stream) in group_of.iter_mut().enumerate() {
            for (i, slot) in stream.iter_mut().enumerate() {
                let gid = counts[*slot as usize];
                let at = &mut groups.start[gid as usize];
                groups.members[*at as usize] = StreamAddr::new(s as u32, i as u64);
                *at += 1;
                *slot = gid;
            }
        }
        let num_groups = groups.start.len() - 1;
        groups.start.copy_within(0..num_groups, 1);
        groups.start[0] = 0;

        MaterializedLayout::assemble(
            scheme,
            self.d,
            self.pgt.group_size(),
            streams,
            groups,
            group_of,
            Some(self.pgt.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_bibd::{Design, DesignSource, Pgt};
    use cms_core::DiskId;

    /// The paper's Example 1 PGT (d = 7, p = 3).
    fn paper_pgt() -> Pgt {
        Pgt::new(&Design::new(
            7,
            3,
            vec![
                vec![0, 1, 3],
                vec![1, 2, 4],
                vec![2, 3, 5],
                vec![3, 4, 6],
                vec![4, 5, 0],
                vec![5, 6, 1],
                vec![6, 0, 2],
            ],
            DesignSource::ProjectivePlane,
        ))
    }

    /// Expected placement of the paper's worked example: the first 42 data
    /// blocks on the (7 disk × 9 block) table printed in Section 4.1.
    /// `expected[i] = (disk, block_no)` for data block `D_i`.
    fn paper_placement() -> Vec<(u32, u64)> {
        vec![
            (0, 0), // D0
            (1, 0), // D1
            (2, 0), // D2
            (3, 3), // D3  — the example the paper spells out
            (4, 3), // D4
            (5, 3), // D5
            (6, 3), // D6
            (0, 1), // D7
            (1, 1), // D8
            (2, 1), // D9
            (3, 1), // D10
            (4, 1), // D11
            (5, 4), // D12
            (6, 4), // D13
            (0, 2), // D14
            (1, 2), // D15
            (2, 2), // D16
            (3, 2), // D17
            (4, 2), // D18
            (5, 2), // D19
            (6, 5), // D20
            (0, 3), // D21
            (1, 6), // D22
            (2, 6), // D23
            (3, 6), // D24
            (4, 6), // D25
            (5, 6), // D26
            (6, 6), // D27
            (0, 4), // D28
            (1, 4), // D29
            (2, 4), // D30
            (3, 7), // D31
            (4, 7), // D32
            (5, 7), // D33
            (6, 7), // D34
            (0, 5), // D35
            (1, 5), // D36
            (2, 8), // D37
            (3, 5), // D38
            (4, 8), // D39
            (5, 8), // D40
            (6, 8), // D41
        ]
    }

    #[test]
    fn reproduces_paper_placement_table() {
        let layout = build(&paper_pgt(), 42).unwrap();
        for (i, &(disk, block)) in paper_placement().iter().enumerate() {
            let loc = layout.locate(StreamAddr::new(0, i as u64));
            assert_eq!(
                (loc.disk.raw(), loc.block_no),
                (disk, block),
                "data block D{i} must be at disk{disk}:{block}, got {loc}"
            );
        }
    }

    #[test]
    fn paper_parity_examples_hold() {
        // "P0 is the parity block for data blocks D0 and D1" (on disk 3,
        // block 0); "P1 is the parity block for data blocks D8 and D2"
        // (on disk 4, block 0).
        let layout = build(&paper_pgt(), 42).unwrap();
        let g0 = layout.group(layout.group_id_of(StreamAddr::new(0, 0)));
        assert_eq!(g0.data, vec![StreamAddr::new(0, 0), StreamAddr::new(0, 1)]);
        assert_eq!(g0.parity, BlockLocation::new(3, 0));

        let g1 = layout.group(layout.group_id_of(StreamAddr::new(0, 2)));
        assert_eq!(g1.data, vec![StreamAddr::new(0, 2), StreamAddr::new(0, 8)]);
        assert_eq!(g1.parity, BlockLocation::new(4, 0));
    }

    #[test]
    fn group_members_live_on_member_disks() {
        let layout = build(&paper_pgt(), 42).unwrap();
        let pgt = layout.pgt().unwrap();
        for i in 0..42u64 {
            let addr = StreamAddr::new(0, i);
            let loc = layout.locate(addr);
            let set = pgt.set_of_block(loc.disk.raw(), loc.block_no);
            let g = layout.group(layout.group_id_of(addr));
            // Parity disk must be the rotated member for this window.
            let window = pgt.window_of_block(loc.block_no);
            assert_eq!(g.parity.disk.raw(), pgt.parity_disk(set, window));
            // All data members map to the same set and window.
            for &other in g.data {
                let oloc = layout.locate(other);
                assert_eq!(pgt.set_of_block(oloc.disk.raw(), oloc.block_no), set);
                assert_eq!(pgt.window_of_block(oloc.block_no), window);
            }
        }
    }

    #[test]
    fn consecutive_blocks_on_consecutive_disks() {
        let layout = build(&paper_pgt(), 42).unwrap();
        for i in 0..41u64 {
            let a = layout.locate(StreamAddr::new(0, i));
            let b = layout.locate(StreamAddr::new(0, i + 1));
            assert_eq!(b.disk, a.disk.successor(7), "block {i} → {}", i + 1);
        }
    }

    #[test]
    fn property2_row_follows_to_next_disk() {
        // Section 4.2 Property 2: if two data blocks on a disk map to the
        // same row, their successors (next block of each clip) map to the
        // same row too.
        let layout = build(&paper_pgt(), 280).unwrap();
        for i in 0..279u64 {
            let row_a = layout.row_of(StreamAddr::new(0, i)).unwrap();
            let row_b = layout.row_of(StreamAddr::new(0, i + 1)).unwrap();
            // Following the paper's round-robin: the successor keeps the
            // row unless the disk wraps (then the row advances by one).
            if (i + 1) % 7 == 0 {
                assert_eq!(row_b, (row_a + 1) % 3, "wrap at block {i}");
            } else {
                assert_eq!(row_b, row_a, "no wrap at block {i}");
            }
        }
    }

    #[test]
    fn super_clip_streams_pin_rows() {
        let pgt = paper_pgt();
        let layout = build_super_clips(&pgt, 70).unwrap();
        assert_eq!(layout.num_streams(), 3);
        for k in 0..3u32 {
            for i in 0..70u64 {
                let addr = StreamAddr::new(k, i);
                assert_eq!(
                    layout.row_of(addr),
                    Some(k),
                    "stream {k} block {i} must map to row {k}"
                );
                let loc = layout.locate(addr);
                assert_eq!(loc.disk.raw(), (i % 7) as u32);
            }
        }
    }

    #[test]
    fn super_clip_group_partners_lie_on_set_disks() {
        // A stream-k block on disk j belongs to set PGT[k][j]; its group
        // partners (possibly blocks of *other* super-clips — groups mix
        // streams by design) must lie exactly on that set's other disks.
        let pgt = paper_pgt();
        let layout = build_super_clips(&pgt, 70).unwrap();
        for k in 0..3u32 {
            for i in 0..70u64 {
                let addr = StreamAddr::new(k, i);
                let loc = layout.locate(addr);
                let set = pgt.set_at(k, loc.disk.raw());
                let g = layout.group(layout.group_id_of(addr));
                for &other in g.data {
                    let od = layout.locate(other).disk.raw();
                    assert!(
                        pgt.members(set).contains(&od),
                        "partner of {addr} on disk {od} outside set {set}"
                    );
                }
                assert!(pgt.members(set).contains(&g.parity.disk.raw()));
            }
        }
    }

    #[test]
    fn reconstruction_reads_exclude_self_and_end_with_parity() {
        let layout = build(&paper_pgt(), 42).unwrap();
        let addr = StreamAddr::new(0, 0);
        let reads = layout.reconstruction_reads(addr);
        // Group of D0: data D0, D1, parity on disk 3 → reads = [D1, P0].
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0], layout.locate(StreamAddr::new(0, 1)));
        assert_eq!(reads[1], BlockLocation::new(3, 0));
        let self_loc = layout.locate(addr);
        assert!(!reads.contains(&self_loc));
    }

    #[test]
    fn storage_overhead_near_one_over_p_minus_one() {
        // For p = 3, parity overhead ≈ 1/(p−1) = 50% once windows fill.
        let layout = build(&paper_pgt(), 4200).unwrap();
        let overhead = layout.parity_overhead();
        assert!(
            (overhead - 0.5).abs() < 0.05,
            "overhead {overhead} should be near 0.5"
        );
    }

    #[test]
    fn balanced_use_of_disks() {
        let layout = build(&paper_pgt(), 700).unwrap();
        let used: Vec<u64> = (0..7).map(|d| layout.blocks_used(DiskId(d))).collect();
        let (min, max) = (
            *used.iter().min().unwrap(),
            *used.iter().max().unwrap(),
        );
        assert!(max - min <= 3, "disk usage spread too wide: {used:?}");
    }

    #[test]
    fn rejects_layouts_too_large_to_address() {
        let pgt = paper_pgt();
        assert!(build(&pgt, (1 << 30) + 1).is_err());
        assert!(build_super_clips(&pgt, 1 << 29).is_err()); // 3 rows × 2^29
    }

    #[test]
    fn works_with_fallback_designs_for_paper_dimensions() {
        use cms_bibd::{best_design, DesignRequest};
        for p in [4u32, 8, 16] {
            let design = best_design(DesignRequest::new(32, p)).unwrap();
            let pgt = Pgt::new(&design);
            let layout = build(&pgt, 3200).unwrap();
            assert_eq!(layout.total_data_blocks(), 3200);
            // Every data block is in a group whose parity is elsewhere.
            for i in 0..3200u64 {
                let addr = StreamAddr::new(0, i);
                let g = layout.group(layout.group_id_of(addr));
                assert_ne!(g.parity.disk, layout.locate(addr).disk);
            }
        }
    }
}
