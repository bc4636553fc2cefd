//! `Pgt::new` against a column-by-column oracle: for designs from every
//! constructor, the table must equal the one read straight off
//! `Design::sets_containing` — column `i` lists the sets containing disk
//! `i` in id order, and each set's occurrences follow in row-major order.

use cms_bibd::construct::{fallback, pairs, planes, steiner, trivial};
use cms_bibd::{Design, Pgt};
use proptest::prelude::*;

/// Checks `pgt` cell by cell, set by set, against the oracle built from
/// `design.sets_containing`.
fn assert_matches_oracle(design: &Design) {
    let pgt = Pgt::new(design);
    let (v, r) = (design.v, pgt.rows());
    let mut occurrences = vec![Vec::new(); design.num_sets()];
    let columns: Vec<Vec<usize>> = (0..v).map(|col| design.sets_containing(col)).collect();
    for col in &columns {
        assert_eq!(col.len(), r as usize);
    }
    for row in 0..r {
        for col in 0..v {
            let set = columns[col as usize][row as usize];
            assert_eq!(pgt.set_at(row, col), set, "cell ({}, {})", row, col);
            occurrences[set].push((row, col));
        }
    }
    assert_eq!(pgt.num_sets(), design.num_sets());
    for (set, occ) in occurrences.iter().enumerate() {
        assert_eq!(pgt.members(set), &design.sets[set][..], "members of {}", set);
        assert_eq!(pgt.occurrences(set), &occ[..], "occurrences of {}", set);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trivial_and_pair_designs(v in 2u32..40) {
        assert_matches_oracle(&trivial::trivial(v));
        if v >= 3 {
            assert_matches_oracle(&pairs::complete_pairs(v));
        }
    }

    #[test]
    fn steiner_triple_systems(i in 0usize..8, seed in 0u64..1000) {
        let v = [7u32, 9, 13, 15, 19, 21, 25, 27][i];
        assert_matches_oracle(&steiner::steiner_triple_system(v, seed));
    }

    #[test]
    fn affine_and_projective_planes(i in 0usize..5) {
        let q = [2u32, 3, 4, 5, 7][i];
        assert_matches_oracle(&planes::affine_plane(q).unwrap());
        assert_matches_oracle(&planes::projective_plane(q).unwrap());
    }

    #[test]
    fn balanced_fallback_designs(v in 5u32..40, k_off in 0u32..8, seed in 0u64..1000) {
        let k = 3 + k_off % (v - 3);
        assert_matches_oracle(&fallback::balanced_partitions(v, k, seed));
    }
}
