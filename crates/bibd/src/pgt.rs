//! The parity group table (PGT) of Section 4.1.
//!
//! Given an equal-replication design over the `d` disks, the PGT is an
//! `r × d` table whose column `i` lists the sets containing disk `i`.
//! Disk block `j` of disk `i` is mapped to `PGT[j mod r][i]`, and within
//! each *window* of `r` consecutive disk blocks, the blocks mapped to the
//! same set form a parity group. Parity rotates among the set's disks in
//! successive windows so parity load is uniform.
//!
//! The table also answers the two structural questions admission control
//! asks:
//!
//! * **Property 1 / column overlap** — for each column, how many *other*
//!   sets of the same column a set can collide with on another disk
//!   (exactly 0 for λ = 1 designs; bounded by λ_max − 1 otherwise).
//! * **Δ-offsets (Section 5)** — for each table cell, the circular disk
//!   distances to the other members of its set, used by the dynamic
//!   reservation scheme to place contingency holds.

use crate::design::{Design, DesignStats};
use std::collections::BTreeSet;

/// Identifier of a set (parity-group stencil) in the underlying design:
/// an index into [`Pgt::members`].
pub type SetId = usize;

/// The parity group table.
#[derive(Debug, Clone)]
pub struct Pgt {
    /// Number of disks `d` (= the design's `v`).
    d: u32,
    /// Number of rows `r` (= the design's replication).
    r: u32,
    /// Parity group size `k` (the design's `k`; individual sets may be
    /// smaller for fallback designs).
    k: u32,
    /// `cell[row * d + col]` = set id at (row, col).
    cell: Vec<SetId>,
    /// `start[set] .. start[set + 1]` indexes `set`'s entries in
    /// `members` and `occurrences` (one entry per member disk).
    start: Vec<usize>,
    /// Set membership (sorted disk ids), all sets back to back.
    members: Vec<u32>,
    /// The `(row, col)` cells holding each set, in row-major order, all
    /// sets back to back.
    occurrences: Vec<(u32, u32)>,
    /// Design balance statistics, retained for admission budgeting.
    stats: DesignStats,
}

impl Pgt {
    /// Builds the PGT from a design.
    ///
    /// # Panics
    ///
    /// Panics if the design does not have equal replication (the table
    /// would not be rectangular).
    #[must_use]
    pub fn new(design: &Design) -> Self {
        let stats = design.stats();
        assert!(
            stats.equal_replication(),
            "PGT needs equal replication, got r in {}..{}",
            stats.r_min,
            stats.r_max
        );
        let d = design.v as usize;
        let r = stats.r_max as usize;
        // One pass over the sets in id order: each member column's next
        // free row takes the set, so column `i` lists the sets containing
        // disk `i` in ascending id order (`Design::sets_containing`).
        let mut start = Vec::with_capacity(design.num_sets() + 1);
        start.push(0);
        let mut members = Vec::with_capacity(design.sets.iter().map(Vec::len).sum());
        let mut next_row = vec![0usize; d];
        let mut cell = vec![usize::MAX; r * d];
        for (set_id, set) in design.sets.iter().enumerate() {
            for &col in set {
                let col = col as usize;
                cell[next_row[col] * d + col] = set_id;
                next_row[col] += 1;
            }
            members.extend_from_slice(set);
            start.push(members.len());
        }
        debug_assert!(cell.iter().all(|&s| s != usize::MAX));
        // Occurrences in row-major order, scattered through the member
        // offsets.
        let mut fill = start.clone();
        let mut occurrences = vec![(0, 0); members.len()];
        for (at, &set_id) in cell.iter().enumerate() {
            occurrences[fill[set_id]] = ((at / d) as u32, (at % d) as u32);
            fill[set_id] += 1;
        }
        Pgt {
            d: design.v,
            r: stats.r_max,
            k: design.k,
            cell,
            start,
            members,
            occurrences,
            stats,
        }
    }

    /// Number of disks (columns).
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.d
    }

    /// Number of rows `r`.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.r
    }

    /// Nominal parity group size `k`.
    #[must_use]
    pub fn group_size(&self) -> u32 {
        self.k
    }

    /// Balance statistics of the underlying design.
    #[must_use]
    pub fn stats(&self) -> &DesignStats {
        &self.stats
    }

    /// The set id at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= r` or `col >= d`.
    #[must_use]
    pub fn set_at(&self, row: u32, col: u32) -> SetId {
        assert!(row < self.r && col < self.d, "PGT index ({row},{col}) out of range");
        self.cell[(row * self.d + col) as usize]
    }

    /// The disks participating in `set` (sorted).
    #[must_use]
    pub fn members(&self, set: SetId) -> &[u32] {
        &self.members[self.start[set]..self.start[set + 1]]
    }

    /// Number of distinct sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.start.len() - 1
    }

    /// All `(row, col)` cells holding `set`. One entry per member disk.
    #[must_use]
    pub fn occurrences(&self, set: SetId) -> &[(u32, u32)] {
        &self.occurrences[self.start[set]..self.start[set + 1]]
    }

    /// The set a given disk block belongs to: block `block_no` of disk
    /// `disk` maps to `PGT[block_no mod r][disk]` (Section 4.1).
    #[must_use]
    pub fn set_of_block(&self, disk: u32, block_no: u64) -> SetId {
        self.set_at((block_no % u64::from(self.r)) as u32, disk)
    }

    /// The window index of a disk block (blocks `n·r .. (n+1)·r − 1` form
    /// window `n`; parity groups live within one window).
    #[must_use]
    pub fn window_of_block(&self, block_no: u64) -> u64 {
        block_no / u64::from(self.r)
    }

    /// The disk that stores the *parity* block for `set` in window
    /// `window`: parity rotates among the set's members in successive
    /// windows ("in successive parity groups mapped to the same set,
    /// parity blocks are uniformly distributed among the disks in the
    /// set"). The rotation descends through the member list — the paper's
    /// worked example places S0 = {0, 1, 3} parity on disks 3, 1, 0 in
    /// windows 0, 1, 2.
    #[must_use]
    pub fn parity_disk(&self, set: SetId, window: u64) -> u32 {
        let members = self.members(set);
        let len = members.len() as u64;
        members[((len - 1 - (window % len)) % len) as usize]
    }

    /// Section 5's Δ-offset set for a cell: the circular distances
    /// `(m − j) mod d` from column `j` to every other column `m` holding
    /// the same set. Reserving contingency on disks `(j + δ) mod d` for
    /// all `δ` covers the rest of the cell's parity group.
    #[must_use]
    pub fn deltas(&self, row: u32, col: u32) -> Vec<u32> {
        let set = self.set_at(row, col);
        self.occurrences(set)
            .iter()
            .filter(|&&(_, m)| m != col)
            .map(|&(_, m)| (m + self.d - col) % self.d)
            .collect()
    }

    /// The union `Δ_i` of all Δ-offsets of row `i` across columns — the
    /// disks (relative to a clip's current disk) on which the dynamic
    /// scheme must hold contingency while serving a super-clip of row `i`.
    #[must_use]
    pub fn row_deltas(&self, row: u32) -> Vec<u32> {
        let mut union = BTreeSet::new();
        for col in 0..self.d {
            union.extend(self.deltas(row, col));
        }
        union.into_iter().collect()
    }

    /// The worst-case number of *additional* blocks disk `survivor` must
    /// serve per round if disk `failed` dies, assuming at most `per_row`
    /// blocks per (disk, row) are in flight (admission condition (b) of
    /// Section 4.2). This is `per_row ×` the number of rows in which the
    /// two disks share a set — exactly `per_row` for λ = 1 designs.
    #[must_use]
    pub fn reconstruction_overlap(&self, survivor: u32, failed: u32) -> u32 {
        if survivor == failed {
            return 0;
        }
        (0..self.r)
            .filter(|&row| {
                let set = self.set_at(row, failed);
                self.members(set).binary_search(&survivor).is_ok()
            })
            .count() as u32
    }

    /// Maximum pair co-occurrence (λ_max): multiplies the contingency
    /// budget required by relaxed designs.
    #[must_use]
    pub fn lambda_max(&self) -> u32 {
        self.stats.lambda_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{best_design, DesignRequest};
    use crate::design::DesignSource;

    /// The paper's Example 1 design, verbatim.
    fn example1() -> Design {
        Design::new(
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
        )
    }

    #[test]
    fn shape_matches_paper_example() {
        let pgt = Pgt::new(&example1());
        assert_eq!(pgt.disks(), 7);
        assert_eq!(pgt.rows(), 3);
        assert_eq!(pgt.num_sets(), 7);
        // Column 0 of the paper's table: S0, S4, S6 (top to bottom).
        assert_eq!(pgt.set_at(0, 0), 0);
        assert_eq!(pgt.set_at(1, 0), 4);
        assert_eq!(pgt.set_at(2, 0), 6);
        // Column 3: S0, S2, S3.
        assert_eq!(pgt.set_at(0, 3), 0);
        assert_eq!(pgt.set_at(1, 3), 2);
        assert_eq!(pgt.set_at(2, 3), 3);
    }

    #[test]
    fn each_set_occurs_once_per_member() {
        let pgt = Pgt::new(&example1());
        for set in 0..pgt.num_sets() {
            assert_eq!(pgt.occurrences(set).len(), pgt.members(set).len());
            let cols: BTreeSet<u32> = pgt.occurrences(set).iter().map(|&(_, c)| c).collect();
            let members: BTreeSet<u32> = pgt.members(set).iter().copied().collect();
            assert_eq!(cols, members, "set {set} occurs exactly in its member columns");
        }
    }

    #[test]
    fn block_mapping_follows_mod_r() {
        let pgt = Pgt::new(&example1());
        // Block 0 of disks 0, 1, 3 all map to S0 and form a parity group
        // (the paper's worked example).
        assert_eq!(pgt.set_of_block(0, 0), 0);
        assert_eq!(pgt.set_of_block(1, 0), 0);
        assert_eq!(pgt.set_of_block(3, 0), 0);
        // Blocks 0, 3, 6 of a disk map to the same set (j mod 3).
        assert_eq!(pgt.set_of_block(0, 0), pgt.set_of_block(0, 3));
        assert_eq!(pgt.set_of_block(0, 3), pgt.set_of_block(0, 6));
        assert_eq!(pgt.window_of_block(0), 0);
        assert_eq!(pgt.window_of_block(5), 1);
        assert_eq!(pgt.window_of_block(6), 2);
    }

    #[test]
    fn parity_rotates_across_windows() {
        let pgt = Pgt::new(&example1());
        // The paper's worked example: "in the three successive parity
        // groups mapped to set S0 (on disk blocks 0, 3 and 6), parity
        // blocks are stored on disks 3, 1 and 0 respectively."
        assert_eq!(pgt.parity_disk(0, 0), 3);
        assert_eq!(pgt.parity_disk(0, 1), 1);
        assert_eq!(pgt.parity_disk(0, 2), 0);
        // All members are hit within k windows; the rotation has period k.
        let members: BTreeSet<u32> = pgt.members(0).iter().copied().collect();
        let hit: BTreeSet<u32> = (0..3).map(|w| pgt.parity_disk(0, w)).collect();
        assert_eq!(hit, members);
        assert_eq!(pgt.parity_disk(0, 0), pgt.parity_disk(0, 3));
        // Window 0 of S1 = {1, 2, 4} puts parity on disk 4 (the paper's
        // P1, parity of D8 and D2).
        assert_eq!(pgt.parity_disk(1, 0), 4);
    }

    #[test]
    fn property1_lambda1_designs_have_unit_overlap() {
        // For a λ=1 design, a failed disk adds load to a survivor through
        // exactly one shared row.
        let pgt = Pgt::new(&example1());
        for failed in 0..7 {
            for survivor in 0..7 {
                if failed == survivor {
                    continue;
                }
                assert_eq!(
                    pgt.reconstruction_overlap(survivor, failed),
                    1,
                    "λ=1 ⇒ exactly one shared row ({survivor} vs {failed})"
                );
            }
        }
    }

    #[test]
    fn deltas_point_at_set_partners() {
        let pgt = Pgt::new(&example1());
        // S0 = {0,1,3}: from column 0 the partners are at +1 and +3.
        let mut d = pgt.deltas(0, 0);
        d.sort_unstable();
        assert_eq!(d, vec![1, 3]);
        // From column 1 (S0 is row 0 of column 1): partners at disks 0 and
        // 3 → offsets (0−1) mod 7 = 6 and (3−1) mod 7 = 2.
        let mut d = pgt.deltas(0, 1);
        d.sort_unstable();
        assert_eq!(d, vec![2, 6]);
    }

    #[test]
    fn row_deltas_cover_all_columns_offsets() {
        let pgt = Pgt::new(&example1());
        for row in 0..3 {
            let union = pgt.row_deltas(row);
            for col in 0..7 {
                for delta in pgt.deltas(row, col) {
                    assert!(union.contains(&delta), "row {row} col {col} δ {delta}");
                }
            }
            assert!(!union.contains(&0), "zero offset must be excluded");
        }
    }

    #[test]
    fn fallback_design_pgt_overlap_bounded_by_lambda() {
        let design = best_design(DesignRequest::new(32, 8)).unwrap();
        let pgt = Pgt::new(&design);
        let lambda = pgt.lambda_max();
        for failed in 0..32 {
            for survivor in 0..32 {
                assert!(
                    pgt.reconstruction_overlap(survivor, failed) <= lambda,
                    "overlap must be bounded by λ_max = {lambda}"
                );
            }
        }
    }

    #[test]
    fn trivial_design_single_row() {
        let design = best_design(DesignRequest::new(8, 8)).unwrap();
        let pgt = Pgt::new(&design);
        assert_eq!(pgt.rows(), 1);
        assert_eq!(pgt.num_sets(), 1);
        for disk in 0..8 {
            assert_eq!(pgt.set_of_block(disk, 12345), 0);
        }
        // Every survivor shares the single row with any failed disk.
        assert_eq!(pgt.reconstruction_overlap(0, 5), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let pgt = Pgt::new(&example1());
        let _ = pgt.set_at(3, 0);
    }

    #[test]
    #[should_panic(expected = "equal replication")]
    fn unequal_replication_rejected() {
        let mut d = example1();
        d.sets.pop();
        let _ = Pgt::new(&d);
    }
}
