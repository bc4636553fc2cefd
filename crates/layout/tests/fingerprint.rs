//! Layout fingerprint goldens: every builder's output, hashed through the
//! public lookup API, must match the pinned values. The hash covers
//! `locate`, `group_id_of`, every `group` record, every `slot` (a little
//! past `blocks_used`), `blocks_used`, `num_groups` and `parity_overhead`,
//! so any change to placement, group numbering or the slot table shows up
//! here, whatever the internal representation.

use cms_bibd::{best_design, Design, DesignRequest, DesignSource, Pgt};
use cms_core::{DiskId, Scheme};
use cms_layout::{
    clustered, declustered, flat, BlockLocation, MaterializedLayout, Slot, StreamAddr,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn addr(&mut self, a: StreamAddr) {
        self.word(u64::from(a.stream));
        self.word(a.index);
    }

    fn loc(&mut self, l: BlockLocation) {
        self.word(u64::from(l.disk.raw()));
        self.word(l.block_no);
    }
}

fn fingerprint(layout: &MaterializedLayout) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(u64::from(layout.num_streams()));
    for s in 0..layout.num_streams() {
        h.word(layout.stream_len(s));
        for i in 0..layout.stream_len(s) {
            let a = StreamAddr::new(s, i);
            h.loc(layout.locate(a));
            h.word(layout.group_id_of(a) as u64);
        }
    }
    h.word(layout.num_groups() as u64);
    for gid in 0..layout.num_groups() {
        let g = layout.group(gid);
        h.word(g.data.len() as u64);
        for a in g.data.iter() {
            h.addr(*a);
        }
        h.loc(g.parity);
        h.word(g.extra.len() as u64);
        for l in g.extra.iter() {
            h.loc(*l);
        }
    }
    for disk in 0..layout.disks() {
        let used = layout.blocks_used(DiskId(disk));
        h.word(used);
        for b in 0..used + 2 {
            match layout.slot(DiskId(disk), b) {
                Slot::Free => h.word(0),
                Slot::Data(a) => {
                    h.word(1);
                    h.addr(a);
                }
                Slot::Parity(g) => {
                    h.word(2);
                    h.word(g as u64);
                }
            }
        }
    }
    h.word(layout.parity_overhead().to_bits());
    h.0
}

/// The paper's Example 1 PGT (d = 7, p = 3).
fn example1() -> Pgt {
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

/// The Figure 6 cell's PGT (d = 32, p = 4) for a design seed.
fn fig6_pgt(seed: u64) -> Pgt {
    Pgt::new(&best_design(DesignRequest { v: 32, k: 4, allow_fallback: true, seed }).unwrap())
}

/// Asserts every case's fingerprint; a failure lists all of them, so a
/// deliberate placement change can be re-pinned in one pass.
fn check(cases: Vec<(&str, MaterializedLayout, u64)>) {
    let got: Vec<u64> = cases.iter().map(|(_, layout, _)| fingerprint(layout)).collect();
    let report: Vec<String> =
        cases.iter().zip(&got).map(|((name, ..), h)| format!("{name}: {h:#018x}")).collect();
    for ((name, _, want), h) in cases.iter().zip(&got) {
        assert_eq!(h, want, "{name} changed; all cases:\n{}", report.join("\n"));
    }
}

#[test]
fn declustered_fig6_cell_is_pinned() {
    check(vec![
        ("seed 1", declustered::build(&fig6_pgt(1), 65_600).unwrap(), 0xb48d_da02_b5c8_80d3),
        ("seed 2", declustered::build(&fig6_pgt(2), 65_600).unwrap(), 0x7ab5_edda_d89d_ee91),
        ("seed 3", declustered::build(&fig6_pgt(3), 65_600).unwrap(), 0xc799_083b_fbcf_1abf),
        ("seed 4", declustered::build(&fig6_pgt(4), 65_600).unwrap(), 0x4cd2_f99e_3608_8504),
    ]);
}

#[test]
fn declustered_example1_is_pinned() {
    check(vec![
        ("42 blocks", declustered::build(&example1(), 42).unwrap(), 0xa0b6_695e_0d44_a804),
        ("4201 blocks", declustered::build(&example1(), 4201).unwrap(), 0x69d9_8cfa_0537_a7bd),
    ]);
}

#[test]
fn super_clips_are_pinned() {
    check(vec![
        (
            "example 1",
            declustered::build_super_clips(&example1(), 70).unwrap(),
            0xc25b_ce6f_0da4_db26,
        ),
        (
            "fig6 seed 1",
            declustered::build_super_clips(&fig6_pgt(1), 3_001).unwrap(),
            0x57ed_21d6_ff46_3130,
        ),
    ]);
}

#[test]
fn clustered_layouts_are_pinned() {
    check(vec![
        (
            "m = 1",
            clustered::build(Scheme::PrefetchParityDisks, 32, 4, 65_600).unwrap(),
            0x51d9_bd4e_9e4f_30e5,
        ),
        (
            "m = 1, tail",
            clustered::build(Scheme::StreamingRaid, 12, 4, 1_001).unwrap(),
            0x5fc0_44fd_e905_8c86,
        ),
        (
            "m = 2",
            clustered::build_with_redundancy(Scheme::PrefetchParityDisks, 32, 8, 2, 10_001)
                .unwrap(),
            0xaad1_fea3_352f_40cb,
        ),
    ]);
}

#[test]
fn flat_layouts_are_pinned() {
    check(vec![
        ("fig6 cell", flat::build(32, 4, 65_600).unwrap(), 0xd84f_5978_9dac_1d1d),
        ("figure 3", flat::build(9, 4, 54).unwrap(), 0xe03a_4228_6796_9b9e),
        ("terminal partial group", flat::build(6, 4, 736).unwrap(), 0xcb21_c0d5_49c1_5e80),
    ]);
}
