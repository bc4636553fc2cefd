//! Property-based tests for the placement engines: for arbitrary array
//! dimensions, group sizes and store sizes, every layout must keep its
//! structural invariants — these are what the fault-tolerance guarantees
//! physically rest on.

use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::{DiskId, Scheme};
use cms_layout::{clustered, declustered, flat, Slot, StreamAddr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Declustered: consecutive stream blocks land on consecutive disks
    /// (the paper's round-robin invariant that makes rounds rotate), and
    /// parity load is near-uniform across disks.
    #[test]
    fn declustered_round_robin_and_parity_balance(
        d in 5u32..14,
        k in 3u32..6,
        windows in 3u64..12,
        seed in 0u64..50,
    ) {
        prop_assume!(k <= d);
        let design = best_design(DesignRequest { v: d, k, allow_fallback: true, seed }).unwrap();
        let pgt = Pgt::new(&design);
        let blocks = u64::from(d) * u64::from(pgt.rows()) * windows;
        let layout = declustered::build(&pgt, blocks).unwrap();

        for i in 0..blocks - 1 {
            let a = layout.locate(StreamAddr::new(0, i));
            let b = layout.locate(StreamAddr::new(0, i + 1));
            prop_assert_eq!(b.disk, a.disk.successor(d), "round-robin at {}", i);
        }

        // Parity blocks spread across disks: no disk holds more than ~3×
        // its fair share once several windows are filled.
        let counts: Vec<u64> = (0..d)
            .map(|disk| {
                (0..layout.blocks_used(DiskId(disk)))
                    .filter(|&b| matches!(layout.slot(DiskId(disk), b), Slot::Parity(_)))
                    .count() as u64
            })
            .collect();
        let total: u64 = counts.iter().sum();
        prop_assert!(total > 0);
        let fair = total / u64::from(d);
        for (disk, &c) in counts.iter().enumerate() {
            prop_assert!(
                c <= 3 * fair + 3,
                "disk {disk} holds {c} parity blocks, fair share {fair}"
            );
        }
    }

    /// Every scheme's layout: each data block's group has its parity on a
    /// different disk than every data member, and group data members are
    /// consecutive stream indices (the sequentiality prefetching relies
    /// on) for the clustered/flat schemes.
    #[test]
    fn groups_are_consecutive_and_disjoint_from_parity(
        clusters in 2u32..5,
        p in 2u32..6,
        rows in 2u64..10,
    ) {
        let d = clusters * p;
        let n = u64::from(d) * rows;
        for layout in [
            clustered::build(Scheme::PrefetchParityDisks, d, p, n * (u64::from(p) - 1) / u64::from(p)).unwrap(),
            flat::build(d, p, n).unwrap(),
        ] {
            for gid in 0..layout.num_groups() {
                let g = layout.group(gid);
                // Consecutive stream indices.
                for w in g.data.windows(2) {
                    prop_assert_eq!(w[1].index, w[0].index + 1, "group {} not consecutive", gid);
                }
                for &a in g.data {
                    prop_assert_ne!(layout.locate(a).disk, g.parity.disk);
                }
            }
        }
    }

    /// Super-clip layout: stream k's blocks sit only on disk blocks
    /// congruent to k modulo r — the §5.1 rule that pins super-clips to
    /// PGT rows.
    #[test]
    fn super_clips_pin_to_rows(
        d in 5u32..12,
        k in 3u32..5,
        len in 10u64..60,
        seed in 0u64..50,
    ) {
        prop_assume!(k <= d);
        let design = best_design(DesignRequest { v: d, k, allow_fallback: true, seed }).unwrap();
        let pgt = Pgt::new(&design);
        let r = u64::from(pgt.rows());
        let layout = declustered::build_super_clips(&pgt, len).unwrap();
        for stream in 0..pgt.rows() {
            for i in 0..len {
                let loc = layout.locate(StreamAddr::new(stream, i));
                prop_assert_eq!(
                    loc.block_no % r,
                    u64::from(stream),
                    "stream {} block {} at {:?}",
                    stream,
                    i,
                    loc
                );
            }
        }
    }

    /// Storage overhead converges to the theoretical ratio: declustered
    /// and flat pay ~1/(p−1) parity per data block; clustered dedicates
    /// 1/p of the disks.
    #[test]
    fn parity_overhead_matches_theory(p in 3u32..6, rows in 20u64..40) {
        let d = 4 * p;
        let n = u64::from(d) * rows;
        let layout = flat::build(d, p, n).unwrap();
        let expect = 1.0 / f64::from(p - 1);
        let got = layout.parity_overhead();
        prop_assert!(
            (got - expect).abs() < 0.15 * expect + 0.02,
            "flat overhead {got} vs {expect}"
        );
    }
}
