//! Fault-schedule campaign scenarios as a scheme-differential test
//! harness.
//!
//! Three layers of defence around the fault model:
//!
//! 1. **Golden**: the full campaign sweep regenerated here must match
//!    the committed JSONL byte-for-byte, so any behavioural drift in the
//!    fault paths shows up as a reviewable golden diff.
//! 2. **Differential**: the paper's §4.1 / §6.1 contrast — declustered
//!    parity spreads rebuild work across many survivors while clustered
//!    parity concentrates it inside the failed disk's cluster — checked
//!    from per-disk rebuild-read counters, not from prose.
//! 3. **Invariant**: property tests that a down disk (failed or in a
//!    transient outage window) serves nothing, under randomized
//!    schedules, schemes and seeds.

use std::sync::OnceLock;

use cms_bench::campaign::{campaign_config, to_jsonl};
use cms_bench::{campaign_rows, CampaignRow, CAMPAIGN_SCHEMES, SCENARIOS};
use cms_core::Scheme;
use cms_sim::{FaultSchedule, SimConfig, Simulator};
use proptest::prelude::*;

/// The sweep the golden was generated from: default rounds and seed, one
/// run per (scenario, scheme). Shared across tests via `OnceLock` so the
/// binary pays for the 15 simulations once.
fn sweep() -> &'static [CampaignRow] {
    static ROWS: OnceLock<Vec<CampaignRow>> = OnceLock::new();
    ROWS.get_or_init(|| campaign_rows(120, 7, 0, None))
}

/// The row for one (scenario, scheme) cell of the sweep.
fn row(scenario: &str, scheme: Scheme) -> &'static CampaignRow {
    sweep()
        .iter()
        .find(|r| r.scenario == scenario && r.scheme == scheme)
        .unwrap_or_else(|| panic!("no campaign row for {scenario}/{scheme}"))
}

#[test]
fn campaign_sweep_matches_committed_golden() {
    let golden = include_str!("../crates/bench/goldens/campaign.jsonl");
    let regenerated = to_jsonl(sweep());
    for (i, (want, got)) in golden.lines().zip(regenerated.lines()).enumerate() {
        assert_eq!(
            want, got,
            "campaign row {i} drifted from the golden; if intentional, regenerate with \
             `cargo run --release -p cms-bench --bin campaign -- --out crates/bench/goldens/campaign.jsonl`"
        );
    }
    assert_eq!(golden, regenerated, "golden and regenerated sweeps differ in length");
}

#[test]
fn single_failure_degraded_cap_refuses_under_overload() {
    // The scenario overloads the array (arrival 20/round) with one disk
    // down and degraded-mode admission on: every scheme must refuse some
    // arrivals rather than over-admit, and no stream may be lost — a
    // single failure is always survivable (or, for the no-redundancy
    // baseline, merely glitchy, never "lost" by the parity-group rule).
    for scheme in CAMPAIGN_SCHEMES {
        let r = row("single_failure", scheme);
        assert!(r.degraded_refusals > 0, "{scheme}: cap never bit");
        assert_eq!(r.lost_streams, 0, "{scheme}: single failure cannot lose streams");
        assert!(r.completed > 0, "{scheme}: degraded mode must still make progress");
    }
    // The redundancy differential: parity schemes mask the failure
    // (recovery reads, zero glitches); the baseline glitches instead.
    for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks] {
        let r = row("single_failure", scheme);
        assert!(r.recovery_reads > 0, "{scheme}: masking requires recovery reads");
        assert!(r.guarantees_held && r.hiccups == 0, "{scheme}: one failure must be masked");
    }
    let bare = row("single_failure", Scheme::NonClustered);
    assert!(bare.hiccups > 0 && !bare.guarantees_held, "no redundancy, no masking");
}

#[test]
fn transient_blip_is_invisible_under_parity() {
    // A 10-round controller blip: parity schemes reconstruct through the
    // window and stay glitch-free; the unprotected baseline hiccups.
    for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks] {
        let r = row("transient_blip", scheme);
        assert!(r.guarantees_held, "{scheme}: blip must be masked");
        assert_eq!(r.hiccups, 0, "{scheme}: blip must not glitch");
        assert!(r.recovery_reads > 0, "{scheme}: masking requires recovery reads");
        assert_eq!(r.lost_streams, 0, "{scheme}: blips never lose streams");
    }
    let bare = row("transient_blip", Scheme::NonClustered);
    assert!(bare.hiccups > 0, "the baseline cannot mask an outage window");
    assert_eq!(bare.lost_streams, 0, "transient windows never declare loss");
}

#[test]
fn same_group_double_failure_loses_streams_deterministically() {
    // Disks 1 and 3 share parity groups in every campaign placement, so
    // the second failure must declare the over-struck streams lost — on
    // every scheme, deterministically, rather than letting them starve.
    for scheme in CAMPAIGN_SCHEMES {
        let r = row("double_failure_same_group", scheme);
        assert!(r.lost_streams > 0, "{scheme}: double failure must declare losses");
        assert!(r.completed > 0, "{scheme}: unaffected streams must still finish");
    }
}

#[test]
fn second_failure_during_rebuild_leaves_holes_but_completes() {
    // Losing a rebuild source mid-rebuild abandons exactly the blocks
    // whose groups were over-struck; the rebuild still finishes the rest.
    for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks] {
        let r = row("fail_during_rebuild", scheme);
        assert!(r.rebuild_reads > 0, "{scheme}: rebuild must run");
        assert!(r.unrecoverable_blocks > 0, "{scheme}: the second failure must punch holes");
        assert!(
            r.rebuild_completed_round.is_some(),
            "{scheme}: rebuild must complete around the holes"
        );
    }
}

#[test]
fn double_disk_failure_is_fatal_for_xor_but_masked_by_rs2() {
    // The multi-failure differential pair: the same two-disk loss inside
    // one cluster, under single XOR parity and under GF(256) RS(k, 2).
    // XOR cannot decode two erasures per group — streams are lost and
    // the rebuild punches counted holes. RS(k, 2) decodes both, so
    // nothing is lost, nothing glitches, and (with `verify_parity` on in
    // every campaign run) every reconstruction byte-verifies against the
    // Reed–Solomon codec.
    let xor = row("double_disk_failure", Scheme::PrefetchParityDisks);
    assert_eq!(xor.m, 1);
    assert!(xor.lost_streams > 0, "XOR must lose streams under a double failure");
    assert!(xor.unrecoverable_blocks > 0, "the XOR rebuild must punch holes");

    let rs = row("double_disk_failure_rs2", Scheme::PrefetchParityDisks);
    assert_eq!(rs.m, 2);
    assert_eq!(rs.lost_streams, 0, "RS(k, 2) must mask the double failure");
    assert_eq!(rs.unrecoverable_blocks, 0, "RS(k, 2) rebuild leaves no holes");
    assert_eq!(rs.hiccups, 0, "RS(k, 2) must stay glitch-free");
    assert_eq!(rs.parity_mismatches, 0, "every RS reconstruction must byte-verify");
    assert!(rs.guarantees_held, "RS(k, 2) must keep the §5 guarantee");
    assert!(rs.recovery_reads > 0, "masking requires recovery reads");
}

#[test]
fn rs2_double_failure_rebuild_completes_and_is_thread_invariant() {
    // Both failed disks rebuild to completion given enough rounds (the
    // 120-round sweep cuts the second rebuild short), and the whole
    // degraded + rebuild pipeline is bit-identical at 1, 2 and 8 disk
    // worker threads.
    let rs2 = SCENARIOS
        .iter()
        .find(|sc| sc.name == "double_disk_failure_rs2")
        .expect("rs2 scenario exists");
    let run = |threads: usize| {
        let mut cfg = campaign_config(rs2, Scheme::PrefetchParityDisks, 400, 7);
        cfg.threads = threads;
        Simulator::new(cfg).expect("constructs").run()
    };
    let base = run(1);
    assert_eq!(base.lost_streams, 0, "RS(k, 2) must mask the double failure");
    assert_eq!(base.unrecoverable_blocks, 0, "no holes with two redundancy shards");
    assert!(base.rebuild_completed_round.is_some(), "both rebuilds must finish");
    assert_eq!(base.parity_mismatches, 0, "every RS reconstruction must byte-verify");
    for threads in [2usize, 8] {
        assert_eq!(base, run(threads), "rs2 run diverged at {threads} threads");
    }
}

#[test]
fn slow_disk_degrades_without_losing_streams() {
    // A slow disk is degraded-but-alive: service stretches (hiccups) but
    // nothing is down, so no recovery path and no losses.
    for scheme in CAMPAIGN_SCHEMES {
        let r = row("slow_disk", scheme);
        assert!(r.hiccups > 0, "{scheme}: a 4x slowdown must be visible");
        assert_eq!(r.lost_streams, 0, "{scheme}: slow disks never lose streams");
        assert_eq!(r.degraded_refusals, 0, "{scheme}: slow disks are not outages");
    }
}

#[test]
fn rebuild_reads_spread_declustered_but_concentrate_clustered() {
    // §4.1 vs §6.1: rebuilding a declustered disk reads from every disk
    // that shares a parity group with it (6 of the 7 survivors in the
    // seed-7 (8, 4) design), while rebuilding a clustered disk reads
    // only from the failed disk's own cluster (3 disks at p = 4).
    let run = |scheme| {
        let mut cfg = campaign_config(&SCENARIOS[0], scheme, 300, 7);
        cfg.faults = Some(FaultSchedule::parse("@30 fail 1\n").expect("parses"));
        cfg.arrival_rate = 1.0;
        cfg.auto_rebuild = true;
        cfg.degraded_admission = false;
        Simulator::new(cfg).expect("constructs").run()
    };

    let decl = run(Scheme::DeclusteredParity);
    assert!(decl.rebuild_completed_round.is_some(), "declustered rebuild finishes");
    assert_eq!(decl.disk_rebuild_reads[1], 0, "the failed disk is never a source");
    let decl_sources: Vec<usize> =
        (0..8).filter(|&d| decl.disk_rebuild_reads[d] > 0).collect();
    assert!(
        decl_sources.len() >= 5,
        "declustered rebuild must spread across survivors, got {decl_sources:?}"
    );
    // Balance bound: a source disk shares at most 2 of disk 1's three
    // parity-group sets in the seed-7 design, so the busiest source
    // carries at most ~2x the lightest (3x allows for row rounding).
    let loads: Vec<u64> = decl_sources.iter().map(|&d| decl.disk_rebuild_reads[d]).collect();
    let (max, min) = (loads.iter().max().unwrap(), loads.iter().min().unwrap());
    assert!(
        *max <= 3 * *min,
        "declustered rebuild sources must be balanced, got {loads:?}"
    );

    let clus = run(Scheme::PrefetchParityDisks);
    assert!(clus.rebuild_completed_round.is_some(), "clustered rebuild finishes");
    let clus_sources: Vec<usize> =
        (0..8).filter(|&d| clus.disk_rebuild_reads[d] > 0).collect();
    assert!(
        clus_sources.iter().all(|&d| d < 4 && d != 1),
        "clustered rebuild of disk 1 must read only from its own cluster \
         (disks 0, 2, 3), got {clus_sources:?}"
    );
    assert!(
        decl_sources.len() > clus_sources.len(),
        "declustered must involve more sources ({decl_sources:?}) than \
         clustered ({clus_sources:?})"
    );
}

/// Small-array config for the invariant proptests: the campaign geometry
/// with a custom schedule and no degraded cap (so streams keep flowing
/// and a buggy engine would have every chance to touch the down disk).
fn invariant_cfg(scheme: Scheme, spec: &str, rounds: u64, seed: u64) -> SimConfig {
    let mut cfg = campaign_config(&SCENARIOS[0], scheme, rounds, seed);
    cfg.faults = Some(FaultSchedule::parse(spec).expect("spec parses"));
    cfg.arrival_rate = 3.0;
    cfg.degraded_admission = false;
    cfg
}

const INVARIANT_SCHEMES: [Scheme; 3] =
    [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks, Scheme::NonClustered];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A hard-failed disk serves nothing — no data blocks, no recovery
    /// reads, no rebuild reads — from its failure round until a spare
    /// rebuild returns it to service (or the run ends), whatever the
    /// scheme, victim, timing or workload seed.
    #[test]
    fn failed_disk_never_serves(
        scheme_ix in 0usize..3,
        disk in 0u32..8,
        fail_round in 10u64..60,
        auto_rebuild in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut cfg = invariant_cfg(
            INVARIANT_SCHEMES[scheme_ix],
            &format!("@{fail_round} fail {disk}\n"),
            80,
            seed,
        );
        cfg.auto_rebuild = auto_rebuild;
        let mut sim = Simulator::new(cfg).expect("constructs");
        let d = disk as usize;
        let mut frozen = None;
        for round in 0..80u64 {
            sim.step_report();
            let m = sim.metrics();
            let now = (m.disk_blocks[d], m.disk_recovery_reads[d], m.disk_rebuild_reads[d]);
            // Faults apply at the start of their round, so the counters
            // must freeze at the end of the round before — and stay
            // frozen until a completed rebuild puts the disk back.
            if round + 1 >= fail_round && m.rebuild_completed_round.is_none() {
                match frozen {
                    None => frozen = Some(now),
                    Some(at) => prop_assert_eq!(
                        now, at,
                        "round {}: failed disk {} served after its failure", round, disk
                    ),
                }
            }
        }
        prop_assert!(frozen.is_some(), "run must cover the failure round");
    }

    /// A disk in a transient outage window serves nothing while the
    /// window is open, and the declared losses stay at zero (transient
    /// windows mask; they never declare streams lost by themselves).
    #[test]
    fn transient_disk_serves_nothing_during_its_window(
        scheme_ix in 0usize..3,
        disk in 0u32..8,
        start in 10u64..50,
        width in 3u64..12,
        seed in 0u64..1000,
    ) {
        let cfg = invariant_cfg(
            INVARIANT_SCHEMES[scheme_ix],
            &format!("@{start} transient {disk} rounds={width}\n"),
            80,
            seed,
        );
        let mut sim = Simulator::new(cfg).expect("constructs");
        let d = disk as usize;
        let mut at_open = None;
        for round in 0..80u64 {
            sim.step_report();
            let m = sim.metrics();
            let now = (m.disk_blocks[d], m.disk_recovery_reads[d], m.disk_rebuild_reads[d]);
            // Baseline at the end of the round before the window opens
            // (the outage applies at the start of round `start`).
            if round + 1 >= start && round < start + width {
                match at_open {
                    None => at_open = Some(now),
                    Some(at) => prop_assert_eq!(
                        now, at,
                        "round {}: disk {} served inside its outage window", round, disk
                    ),
                }
            }
        }
        prop_assert!(at_open.is_some(), "run must cover the outage window");
        prop_assert_eq!(sim.metrics().lost_streams, 0, "transients never declare loss");
    }
}
