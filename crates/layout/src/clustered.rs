//! Clustered placement with dedicated parity disks (Section 6.1).
//!
//! The `d` disks are grouped into `d/p` clusters of `p` disks; the last
//! disk of each cluster is its parity disk, the other `p−1` hold data.
//! CM data blocks are striped round-robin over the `d·(p−1)/p` data disks
//! globally; every aligned run of `p−1` consecutive data blocks lies
//! within one cluster and forms a parity group together with one block on
//! the cluster's parity disk.
//!
//! This placement is shared by three schemes that differ only in
//! retrieval policy: pre-fetching with parity disks (§6.1), streaming
//! RAID (§7.3) and the non-clustered baseline (§7.4). The builder takes
//! the target [`Scheme`] so the layout is labeled correctly.

use crate::materialized::{check_capacity, GroupTable, MaterializedLayout};
use crate::types::{BlockLocation, StreamAddr};
use cms_core::{CmsError, Scheme};

/// Builds the clustered layout with `num_data_blocks` placed and a single
/// XOR parity disk per cluster (the paper's `m = 1`).
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] unless `2 <= p <= d`, `p | d`, and
/// `scheme` is one of the three parity-disk schemes.
pub fn build(
    scheme: Scheme,
    d: u32,
    p: u32,
    num_data_blocks: u64,
) -> Result<MaterializedLayout, CmsError> {
    build_with_redundancy(scheme, d, p, 1, num_data_blocks)
}

/// Builds the clustered layout with `m` redundancy disks per cluster: the
/// last `m` disks of each `p`-disk cluster hold Reed–Solomon shards
/// (plain XOR parity when `m = 1`), the first `k = p − m` hold data.
/// Groups are aligned runs of `k` consecutive data blocks plus one block
/// on each of the cluster's redundancy disks.
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] unless `2 <= p <= d`, `p | d`,
/// `1 <= m < p`, and `scheme` is one of the three parity-disk schemes.
pub fn build_with_redundancy(
    scheme: Scheme,
    d: u32,
    p: u32,
    m: u32,
    num_data_blocks: u64,
) -> Result<MaterializedLayout, CmsError> {
    if !scheme.uses_parity_disks() {
        return Err(CmsError::invalid_params(format!(
            "{scheme} does not use dedicated parity disks"
        )));
    }
    if p < 2 || p > d {
        return Err(CmsError::invalid_params("need 2 <= p <= d"));
    }
    if !d.is_multiple_of(p) {
        return Err(CmsError::invalid_params(format!(
            "clustered layout needs p | d (got d = {d}, p = {p})"
        )));
    }
    if m == 0 || m >= p {
        return Err(CmsError::invalid_params(format!(
            "clustered layout needs 1 <= m < p (got p = {p}, m = {m})"
        )));
    }
    check_capacity(1, num_data_blocks)?;
    let k = p - m;
    let clusters = d / p;
    let data_disks = clusters * k; // d·(p−m)/p
    let span = u64::from(data_disks);

    let physical_disk = |data_disk: u32| -> u32 {
        let cluster = data_disk / k;
        let offset = data_disk % k;
        cluster * p + offset
    };
    let stream: Vec<BlockLocation> = (0..num_data_blocks)
        .map(|i| BlockLocation::new(physical_disk((i % span) as u32), i / span))
        .collect();

    // Groups: run g covers data indices g·k .. g·k+k−1.
    let group_span = u64::from(k);
    let num_groups = num_data_blocks.div_ceil(group_span);
    let mut groups = GroupTable::with_capacity(m as usize, num_groups as usize, stream.len());
    for g in 0..num_groups {
        let start = g * group_span;
        let end = ((g + 1) * group_span).min(num_data_blocks);
        // All members lie in cluster g mod clusters at row g / clusters;
        // redundancy shards occupy the cluster's last `m` disks, in
        // shard-index order `k .. k + m`.
        let cluster = (g % u64::from(clusters)) as u32;
        let block_no = g / u64::from(clusters);
        groups.push(
            (start..end).map(|i| StreamAddr::new(0, i)),
            (0..m).map(|r| BlockLocation::new(cluster * p + k + r, block_no)),
        );
    }
    let group_of = (0..num_data_blocks).map(|i| (i / group_span) as u32).collect();

    MaterializedLayout::assemble(scheme, d, p, vec![stream], groups, vec![group_of], None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Slot;
    use cms_core::DiskId;

    #[test]
    fn parity_disks_hold_only_parity() {
        let layout = build(Scheme::PrefetchParityDisks, 8, 4, 120).unwrap();
        // Clusters {0..3} and {4..7}; parity disks 3 and 7.
        for disk in [3u32, 7] {
            for b in 0..layout.blocks_used(DiskId(disk)) {
                assert!(
                    matches!(layout.slot(DiskId(disk), b), Slot::Parity(_) | Slot::Free),
                    "disk {disk} block {b} must be parity"
                );
            }
        }
        for disk in [0u32, 1, 2, 4, 5, 6] {
            for b in 0..layout.blocks_used(DiskId(disk)) {
                assert!(
                    matches!(layout.slot(DiskId(disk), b), Slot::Data(_) | Slot::Free),
                    "disk {disk} block {b} must be data"
                );
            }
        }
    }

    #[test]
    fn round_robin_over_data_disks() {
        let layout = build(Scheme::PrefetchParityDisks, 8, 4, 24).unwrap();
        // Data disks in order: 0,1,2 (cluster 0), 4,5,6 (cluster 1).
        let expect_disks = [0u32, 1, 2, 4, 5, 6];
        for i in 0..24u64 {
            let loc = layout.locate(StreamAddr::new(0, i));
            assert_eq!(loc.disk.raw(), expect_disks[(i % 6) as usize], "block {i}");
            assert_eq!(loc.block_no, i / 6, "block {i}");
        }
    }

    #[test]
    fn groups_stay_within_one_cluster() {
        let layout = build(Scheme::StreamingRaid, 12, 4, 360).unwrap();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            let clusters: Vec<u32> = g
                .data
                .iter()
                .map(|&a| layout.locate(a).disk.raw() / 4)
                .collect();
            assert!(
                clusters.iter().all(|&c| c == g.parity.disk.raw() / 4),
                "group {gid} spans clusters"
            );
            assert_eq!(g.data.len(), 3, "full groups have p−1 data blocks");
        }
    }

    #[test]
    fn first_block_of_aligned_clip_starts_a_cluster() {
        // Section 6.1: "the first data block of each CM clip is stored on
        // the first data disk within a cluster" — clip starts are aligned
        // to multiples of p−1.
        let layout = build(Scheme::PrefetchParityDisks, 8, 4, 60).unwrap();
        for clip_start in (0..60u64).step_by(3) {
            let loc = layout.locate(StreamAddr::new(0, clip_start));
            assert_eq!(loc.disk.raw() % 4, 0, "aligned start {clip_start}");
        }
    }

    #[test]
    fn mirroring_case_p2() {
        let layout = build(Scheme::NonClustered, 6, 2, 30).unwrap();
        // Each group: one data block, parity on its cluster's twin.
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            assert_eq!(g.data.len(), 1);
            let dloc = layout.locate(g.data[0]);
            assert_eq!(g.parity.disk.raw(), dloc.disk.raw() + 1);
            assert_eq!(g.parity.block_no, dloc.block_no);
        }
    }

    #[test]
    fn trailing_partial_group_is_allowed() {
        let layout = build(Scheme::PrefetchParityDisks, 8, 4, 20).unwrap();
        // 20 blocks → 6 full groups of 3 + 1 group of 2.
        assert_eq!(layout.num_groups(), 7);
        let last = layout.group(6);
        assert_eq!(last.data.len(), 2);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(build(Scheme::PrefetchParityDisks, 9, 4, 10).is_err()); // 4 ∤ 9
        assert!(build(Scheme::PrefetchParityDisks, 8, 1, 10).is_err());
        assert!(build(Scheme::PrefetchParityDisks, 8, 16, 10).is_err());
        assert!(build(Scheme::DeclusteredParity, 8, 4, 10).is_err()); // wrong scheme
        assert!(build_with_redundancy(Scheme::PrefetchParityDisks, 8, 4, 0, 10).is_err());
        assert!(build_with_redundancy(Scheme::PrefetchParityDisks, 8, 4, 4, 10).is_err());
    }

    #[test]
    fn redundancy_two_reserves_the_last_two_disks_per_cluster() {
        let layout =
            build_with_redundancy(Scheme::PrefetchParityDisks, 8, 4, 2, 120).unwrap();
        assert_eq!(layout.redundancy(), 2);
        // Clusters {0..3} and {4..7}; k = 2 → data on {0,1,4,5}, shards
        // on {2,3,6,7}.
        for disk in [2u32, 3, 6, 7] {
            for b in 0..layout.blocks_used(DiskId(disk)) {
                assert!(
                    matches!(layout.slot(DiskId(disk), b), Slot::Parity(_) | Slot::Free),
                    "disk {disk} block {b} must be redundancy"
                );
            }
        }
        for disk in [0u32, 1, 4, 5] {
            for b in 0..layout.blocks_used(DiskId(disk)) {
                assert!(
                    matches!(layout.slot(DiskId(disk), b), Slot::Data(_) | Slot::Free),
                    "disk {disk} block {b} must be data"
                );
            }
        }
    }

    #[test]
    fn redundancy_two_groups_have_k_data_and_m_shards() {
        let layout = build_with_redundancy(Scheme::StreamingRaid, 8, 4, 2, 64).unwrap();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            assert_eq!(g.data.len(), 2, "full groups have k = p−m data blocks");
            assert_eq!(g.redundancy(), 2);
            let cluster = g.parity.disk.raw() / 4;
            assert!(
                g.extra.iter().all(|loc| loc.disk.raw() / 4 == cluster),
                "group {gid}: shards span clusters"
            );
            assert_eq!(g.parity.disk.raw() % 4, 2);
            assert_eq!(g.extra[0].disk.raw() % 4, 3);
        }
        // Reconstruction reads report the sibling data block plus both
        // shards: any k = 2 of the 3 survivors suffice for the decoder.
        let reads = layout.reconstruction_reads(StreamAddr::new(0, 0));
        assert_eq!(reads.len(), 3);
    }

    #[test]
    fn redundancy_one_is_byte_identical_to_build() {
        let a = build(Scheme::PrefetchParityDisks, 8, 4, 120).unwrap();
        let b = build_with_redundancy(Scheme::PrefetchParityDisks, 8, 4, 1, 120).unwrap();
        assert_eq!(b.redundancy(), 1);
        for i in 0..120u64 {
            let addr = StreamAddr::new(0, i);
            assert_eq!(a.locate(addr), b.locate(addr), "block {i}");
            assert_eq!(a.group_id_of(addr), b.group_id_of(addr), "block {i}");
        }
        for gid in 0..a.num_groups() {
            assert_eq!(a.group(gid), b.group(gid), "group {gid}");
        }
    }

    #[test]
    fn storage_overhead_is_one_parity_disk_per_cluster() {
        let layout = build(Scheme::PrefetchParityDisks, 32, 4, 32 * 3 * 100).unwrap();
        // Data disks carry 100 blocks each; parity disks carry 100 each:
        // overhead = 1/(p−1) = 1/3.
        let overhead = layout.parity_overhead();
        assert!((overhead - 1.0 / 3.0).abs() < 0.01, "overhead {overhead}");
    }

    #[test]
    fn reconstruction_reads_for_prefetch_need_only_parity() {
        // The §6 insight: with the whole group prefetched, only the parity
        // block needs reading — reconstruction_reads still reports the
        // full group; the prefetch policy filters to what is not buffered.
        let layout = build(Scheme::PrefetchParityDisks, 8, 4, 24).unwrap();
        let reads = layout.reconstruction_reads(StreamAddr::new(0, 0));
        assert_eq!(reads.len(), 3); // two sibling data blocks + parity
        assert_eq!(reads[2].disk.raw(), 3); // cluster 0's parity disk
    }
}
