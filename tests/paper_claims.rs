//! The paper's evaluation claims, asserted against this reproduction.
//!
//! Each test names the claim (Section 8 / 9 prose) and checks the *shape*
//! of our analytical and simulated results — who wins, where curves rise
//! and fall, where crossovers land. Absolute clip counts are not asserted
//! (our substrate is a simulator, not the authors' testbed).

use cms_bench::{failure_drill, fig5_rows, fig6_rows, Fig6Row};
use cms_core::Scheme;
use cms_sim::TraceSpec;

fn fig5_clips(buffer: &str, scheme: Scheme) -> Vec<(u32, u32)> {
    fig5_rows()
        .into_iter()
        .filter(|r| r.buffer == buffer && r.scheme == scheme)
        .map(|r| (r.p, r.point.total_clips))
        .collect()
}

#[test]
fn claim_declustered_and_flat_decline_with_p() {
    // §8.1: "Both the declustered parity and the pre-fetching without
    // parity disk schemes support fewer clips as the parity group sizes
    // increase."
    for buffer in ["256MB", "2GB"] {
        for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchFlat] {
            let pts = fig5_clips(buffer, scheme);
            for w in pts.windows(2) {
                assert!(
                    w[1].1 <= w[0].1,
                    "{scheme} at {buffer} must decline: {pts:?}"
                );
            }
        }
    }
}

#[test]
fn claim_clustered_schemes_rise_then_fall() {
    // §8.1: "for the three schemes, we initially observe an increase in
    // the number of clips serviced as the parity group size increases
    // ... beyond a parity group size of 8 [it] decreases."
    for buffer in ["256MB", "2GB"] {
        for scheme in [
            Scheme::StreamingRaid,
            Scheme::PrefetchParityDisks,
            Scheme::NonClustered,
        ] {
            let pts = fig5_clips(buffer, scheme);
            assert!(pts[1].1 > pts[0].1, "{scheme} {buffer}: p=4 must beat p=2");
            let peak = pts.iter().map(|&(_, c)| c).max().unwrap();
            let last = pts.last().unwrap().1;
            assert!(last < peak, "{scheme} {buffer}: p=32 must be below the peak");
        }
    }
}

#[test]
fn claim_small_buffer_favors_declustered() {
    // §8.1 / §9: "for low and medium buffer sizes, the declustered parity
    // scheme outperforms the remaining schemes". Checked at the small and
    // medium parity group sizes the claim concerns (at large p the
    // clustered schemes overtake it — also per the paper).
    for p in [2u32, 4] {
        let declustered = fig5_clips("256MB", Scheme::DeclusteredParity)
            .iter()
            .find(|&&(pp, _)| pp == p)
            .unwrap()
            .1;
        for other in [
            Scheme::StreamingRaid,
            Scheme::PrefetchParityDisks,
            Scheme::NonClustered,
        ] {
            let c = fig5_clips("256MB", other).iter().find(|&&(pp, _)| pp == p).unwrap().1;
            assert!(
                declustered > c,
                "p={p}: declustered ({declustered}) must beat {other} ({c}) at 256MB"
            );
        }
    }
}

#[test]
fn claim_large_buffer_favors_prefetch_flat_over_declustered() {
    // §8.1: "it services fewer clips than the pre-fetching without parity
    // disk scheme" (declustered, at 2 GB).
    for p in [2u32, 4, 8, 16] {
        let declustered = fig5_clips("2GB", Scheme::DeclusteredParity)
            .iter()
            .find(|&&(pp, _)| pp == p)
            .unwrap()
            .1;
        let flat = fig5_clips("2GB", Scheme::PrefetchFlat)
            .iter()
            .find(|&&(pp, _)| pp == p)
            .unwrap()
            .1;
        assert!(
            flat >= declustered,
            "p={p}: flat ({flat}) must match/beat declustered ({declustered}) at 2GB"
        );
    }
}

#[test]
fn claim_prefetch_beats_streaming_raid_everywhere() {
    // §9: "Both the pre-fetching schemes and the non-clustered scheme
    // perform better than streaming RAID for all parity group sizes."
    for buffer in ["256MB", "2GB"] {
        let raid = fig5_clips(buffer, Scheme::StreamingRaid);
        for scheme in [Scheme::PrefetchParityDisks, Scheme::NonClustered] {
            let other = fig5_clips(buffer, scheme);
            for (&(p, r), &(_, o)) in raid.iter().zip(other.iter()) {
                assert!(
                    o >= r,
                    "{scheme} ({o}) must match/beat streaming RAID ({r}) at {buffer}, p={p}"
                );
            }
        }
    }
}

#[test]
fn claim_non_clustered_peaks_at_large_p() {
    // §8.1: "the non-clustered ... scheme[s] perform the best for a
    // parity group size of 16 since they utilize disk bandwidth
    // effectively" — we accept a peak at 8 or 16.
    for buffer in ["256MB", "2GB"] {
        let pts = fig5_clips(buffer, Scheme::NonClustered);
        let (peak_p, _) = pts.iter().copied().max_by_key(|&(_, c)| c).unwrap();
        assert!(
            peak_p == 8 || peak_p == 16,
            "{buffer}: non-clustered peak at p={peak_p}, expected 8 or 16"
        );
    }
}

/// Short simulated Figure 6 (120 rounds keeps CI fast; shapes stabilize
/// well before 600).
fn fig6_short() -> Vec<Fig6Row> {
    fig6_rows(120, 0xF166, &TraceSpec::off())
}

#[test]
fn claim_simulation_matches_analytical_ordering_roughly() {
    // §8.2: "for a buffer size of 256 MB, the relative performance of the
    // various schemes is almost the same as [the analytical results]".
    // We check the coarse version: at p = 4 and 256 MB, declustered and
    // the parity-disk schemes all beat streaming RAID in simulation too.
    let rows = fig6_short();
    let admitted = |scheme: Scheme, p: u32| {
        rows.iter()
            .find(|r| r.buffer == "256MB" && r.scheme == scheme && r.p == p)
            .map(|r| r.metrics.admitted)
            .unwrap()
    };
    let raid = admitted(Scheme::StreamingRaid, 4);
    for scheme in [
        Scheme::DeclusteredParity,
        Scheme::PrefetchParityDisks,
        Scheme::NonClustered,
    ] {
        assert!(
            admitted(scheme, 4) > raid,
            "{scheme} must beat streaming RAID in simulation at p=4/256MB"
        );
    }
}

#[test]
fn claim_simulated_runs_never_violate_guarantees() {
    // The premise of every number in Figure 6: admission control keeps
    // all rate guarantees, so fault-free runs never hiccup and per-disk
    // rounds never exceed their deadline.
    for r in fig6_short() {
        assert_eq!(r.metrics.hiccups, 0, "{} p={}", r.scheme, r.p);
        assert!(
            r.metrics.peak_utilization <= 1.0 + 1e-9,
            "{} p={}: utilization {}",
            r.scheme,
            r.p,
            r.metrics.peak_utilization
        );
    }
}

#[test]
fn claim_buffer_constraint_holds_in_simulation() {
    // The §7 buffer math is a real bound: in every simulated cell, peak
    // buffered bytes stay within the configured buffer B (the prefetch
    // schemes saturate it exactly — their capacity is buffer-limited).
    for r in fig6_short() {
        let buffer_bytes: u64 = if r.buffer == "256MB" { 256 << 20 } else { 2 << 30 };
        let peak = r.metrics.peak_buffered_blocks * r.point.block_bytes;
        assert!(
            peak <= buffer_bytes,
            "{} p={} {}: peak buffer {} exceeds B {}",
            r.scheme,
            r.p,
            r.buffer,
            peak,
            buffer_bytes
        );
    }
}

#[test]
fn claim_fig6_golden_shapes() {
    // The simulated Figure 6 reproduces the paper's qualitative curve
    // shapes (E3), checked per buffer size on one grid run:
    //  1. the clustered family (streaming RAID, pre-fetching with parity
    //     disks, non-clustered) rises from p = 2 and falls by p = 32 —
    //     the peak is interior;
    //  2. declustered parity and pre-fetching without parity disks peak
    //     at p = 2 and decline across the sweep;
    //  3. the non-clustered curve crosses above declustered parity in the
    //     p = 8..16 region (small p favors declustering, large p favors
    //     effective-bandwidth clustering).
    let rows = fig6_short();
    let curve = |buffer: &str, scheme: Scheme| -> Vec<(u32, u64)> {
        rows.iter()
            .filter(|r| r.buffer == buffer && r.scheme == scheme)
            .map(|r| (r.p, r.metrics.admitted))
            .collect()
    };
    for buffer in ["256MB", "2GB"] {
        // 1. Clustered family: rise then fall.
        for scheme in [
            Scheme::StreamingRaid,
            Scheme::PrefetchParityDisks,
            Scheme::NonClustered,
        ] {
            let pts = curve(buffer, scheme);
            assert!(pts[1].1 > pts[0].1, "{scheme} {buffer}: p=4 must beat p=2: {pts:?}");
            let (peak_p, peak) = pts.iter().copied().max_by_key(|&(_, c)| c).unwrap();
            assert!(
                peak_p > 2 && peak_p < 32,
                "{scheme} {buffer}: peak must be interior, got p={peak_p}: {pts:?}"
            );
            assert!(
                pts.last().unwrap().1 < peak,
                "{scheme} {buffer}: p=32 must be below the peak: {pts:?}"
            );
        }
        // 2. Declustered/flat: best at p = 2, declining across the sweep.
        for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchFlat] {
            let pts = curve(buffer, scheme);
            let first = pts[0].1;
            assert!(
                pts.iter().all(|&(_, c)| c <= first),
                "{scheme} {buffer}: p=2 must be the maximum: {pts:?}"
            );
            assert!(
                pts.last().unwrap().1 < first,
                "{scheme} {buffer}: p=32 must fall below p=2: {pts:?}"
            );
            let at = |p| pts.iter().find(|&&(pp, _)| pp == p).unwrap().1;
            assert!(at(16) < at(4), "{scheme} {buffer}: p=16 must fall below p=4: {pts:?}");
        }
        // 3. Crossover: declustered leads non-clustered at p = 2; the
        // first p where non-clustered matches or beats it lies in 8..=16.
        let declustered = curve(buffer, Scheme::DeclusteredParity);
        let non_clustered = curve(buffer, Scheme::NonClustered);
        assert!(
            declustered[0].1 > non_clustered[0].1,
            "{buffer}: declustered must lead at p=2"
        );
        let crossover = declustered
            .iter()
            .zip(&non_clustered)
            .find(|((_, d), (_, n))| n >= d)
            .map(|((p, _), _)| *p)
            .expect("non-clustered must overtake declustered somewhere");
        assert!(
            (8..=16).contains(&crossover),
            "{buffer}: crossover at p={crossover}, expected in 8..=16"
        );
    }
}

#[test]
fn claim_failure_drill_upholds_section9() {
    // §9: both approaches provide "rate guarantees for CM clips without
    // any interruption of service in the event of a single disk failure";
    // §7.4: non-clustered "may cause blocks belonging to clips to be
    // lost".
    let rows = failure_drill(150, 0xD121, &TraceSpec::off());
    assert!(rows.len() >= 6, "all six schemes must run the drill");
    for r in &rows {
        assert_eq!(r.metrics.parity_mismatches, 0, "{}", r.scheme);
        if r.scheme == Scheme::NonClustered {
            assert!(
                r.metrics.hiccups > 0,
                "saturated non-clustered should expose the §7.4 caveat"
            );
        } else {
            assert_eq!(r.metrics.hiccups, 0, "{} must hold its guarantee", r.scheme);
            assert!(r.metrics.reconstructions > 0, "{} must have reconstructed", r.scheme);
        }
    }
}

#[test]
fn claim_cluster_capacity_respects_vod_bounds() {
    // Cluster tier vs the Scalable Distributed VoD bounds (Viennot et
    // al., RR-6496): a saturated multi-node campaign with a node
    // failure, stream migration and cross-node rebuild must stay inside
    // the bandwidth bound (total streams ≤ N × per-node capacity), track
    // the degraded bound while nodes are dark, and finish its rebuild in
    // exactly the rate-limited round count.
    use cms_cluster::{ClusterConfig, ClusterSim};
    use cms_model::{
        capacity, capacity_bound, clip_concurrency_bound, cluster_capacity_bound,
        cluster_rebuild_rounds, degraded_cluster_capacity_bound, ModelInput,
    };
    use cms_sim::{SimConfig, Simulator};

    let mut input = ModelInput::sigmod96(256 << 20);
    input.d = 8;
    let point = capacity(Scheme::DeclusteredParity, &input, 4).expect("feasible point");
    let mut node = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, 8);
    node.arrival_rate = 0.0; // the gateway generates all arrivals
    node.clip_len = 12;

    // The per-node stream capacity is the single-server §7 number; it
    // must itself respect the single-server analytical ceiling.
    let mut probe = node.clone();
    probe.catalog_clips = 4;
    let node_cap = Simulator::new(probe).expect("probe").nominal_capacity();
    assert!(node_cap > 0);
    assert!(
        node_cap <= capacity_bound(&point, 8),
        "engine capacity {node_cap} exceeds the §7 bound {}",
        capacity_bound(&point, 8)
    );

    const NODES: u32 = 8;
    const REPLICATION: u32 = 2;
    const REBUILD_RATE: u32 = 64;
    let faults = cms_fault::FaultSchedule::parse("@40 fail-node 3\n@60 repair-node 3\n")
        .expect("schedule parses");
    let cfg = ClusterConfig {
        nodes: NODES,
        replication: REPLICATION,
        catalog_clips: 64,
        node,
        arrival_rate: 400.0, // far beyond the cluster: saturate admission
        zipf_theta: 0.0,
        rounds: 120,
        rebuild_rate: REBUILD_RATE,
        rebuild_fanout: 2,
        faults: Some(faults),
        seed: 0x0DB0_09D5,
        threads: 1,
        trace: cms_trace::TraceSpec::off(),
    };
    let run = ClusterSim::new(cfg).expect("constructs").run();
    let m = &run.metrics;

    // Bandwidth bound: the gateway cap and everything it admitted stay
    // under N × node capacity, degrading linearly with dark nodes.
    let healthy_bound = cluster_capacity_bound(node_cap, NODES);
    assert!(m.peak_active <= healthy_bound, "{} > {healthy_bound}", m.peak_active);
    for r in &run.reports {
        let dark = u32::try_from(r.down_nodes + r.rebuilding_nodes).unwrap();
        assert!(
            r.cluster_cap <= degraded_cluster_capacity_bound(node_cap, NODES, dark),
            "round {}: cap {} exceeds degraded bound with {dark} dark nodes",
            r.round,
            r.cluster_cap
        );
        assert!(r.active + r.pending <= healthy_bound, "round {}: overcommitted", r.round);
    }
    // Saturation actually exercised the cap (the bound is not vacuous),
    // and the failure triggered migration with no stream loss at r=2.
    assert!(m.cluster_refusals > 0, "saturated gateway must shed");
    assert!(m.migrations > 0);
    assert_eq!(m.lost_streams, 0);
    assert_eq!(m.hiccups, 0, "rate guarantees hold through the node failure");
    // After the post-failure transient drains, commitments sit back
    // under the live cap.
    let last = run.reports.last().unwrap();
    assert!(last.active + last.pending <= last.cluster_cap);

    // Placement bound: one title can never out-stream its replica set.
    assert!(clip_concurrency_bound(node_cap, REPLICATION) <= healthy_bound);
    assert_eq!(
        clip_concurrency_bound(node_cap, NODES),
        healthy_bound,
        "full replication is the only way one title spans the cluster"
    );

    // Rebuild bound: the cross-node rebuild is rate-limited by
    // construction, so it ships blocks for exactly ceil(debt / rate)
    // rounds (at least one source node was up throughout).
    let debt = m.cross_node_rebuild_blocks;
    assert!(debt > 0);
    assert_eq!(m.node_rebuilds_completed, 1);
    let shipping_rounds =
        run.reports.iter().filter(|r| r.rebuild_blocks > 0).count() as u64;
    assert_eq!(shipping_rounds, cluster_rebuild_rounds(debt, REBUILD_RATE));
}
