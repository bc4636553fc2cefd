//! The cluster campaign: canned node-failure scenarios run on a small
//! multi-node cluster, emitting one JSONL verdict per scenario.
//!
//! Each scenario is a node-scoped [`cms_fault::FaultSchedule`] spec plus
//! gateway knobs, run on an 8-node cluster of the engine test geometry
//! (d = 8, p = 4, q = 8, f = 2 per node) so a full sweep finishes in
//! seconds. Rows are emitted in fixed scenario order and every
//! simulation is bit-identical at any `--jobs` setting, so the output
//! diffs byte-for-byte against the committed golden
//! (`crates/bench/goldens/cluster_campaign.jsonl`) — CI's
//! `cluster-campaign` job does exactly that at `--jobs 1` and
//! `--jobs 8`.

use cms_cluster::{ClusterConfig, ClusterMetrics, ClusterSim};
use cms_core::Scheme;
use cms_sim::{FaultSchedule, SimConfig};
use serde::{Deserialize, Serialize};

use crate::campaign::run_cells;

/// One canned cluster scenario: a node-scoped schedule spec plus the
/// gateway knobs that make its failure mode observable.
#[derive(Debug, Clone, Copy)]
pub struct ClusterScenario {
    /// Stable scenario name (the JSONL key and `--scenario` filter).
    pub name: &'static str,
    /// Node-scoped fault-schedule spec (`fail-node` / `repair-node`);
    /// empty string for a fault-free run.
    pub spec: &'static str,
    /// Nodes in the cluster (the canned sweep uses 8 everywhere; the
    /// opt-in `giant` stressor scales this up).
    pub nodes: u32,
    /// Replication degree `r`.
    pub replication: u32,
    /// Mean Poisson arrivals per round at the gateway.
    pub arrival_rate: f64,
    /// Blocks per round shipped to a rebuilding node.
    pub rebuild_rate: u32,
}

/// The canned scenario set, in emission order.
pub const CLUSTER_SCENARIOS: [ClusterScenario; 5] = [
    ClusterScenario {
        name: "steady",
        spec: "",
        nodes: 8,
        replication: 2,
        arrival_rate: 12.0,
        rebuild_rate: 64,
    },
    ClusterScenario {
        name: "node_failure",
        spec: "@40 fail-node 3\n",
        nodes: 8,
        replication: 2,
        arrival_rate: 12.0,
        rebuild_rate: 64,
    },
    ClusterScenario {
        name: "fail_migrate_rebuild",
        spec: "@40 fail-node 3\n@70 repair-node 3\n",
        nodes: 8,
        replication: 2,
        arrival_rate: 12.0,
        rebuild_rate: 32,
    },
    ClusterScenario {
        // Two concurrent node failures: both nodes' streams migrate at
        // once and the cluster cap shrinks by two nodes' bandwidth. A
        // clip whose replica pair is exactly {2, 5} would lose both
        // copies; whether one exists depends on the seeded placement
        // permutation (at the default seed none does, so this scenario
        // exercises concurrent migration under a deeply degraded cap).
        name: "double_node_failure",
        spec: "@40 fail-node 2\n@45 fail-node 5\n",
        nodes: 8,
        replication: 2,
        arrival_rate: 12.0,
        rebuild_rate: 64,
    },
    ClusterScenario {
        // No replication: a node failure strands its whole catalog.
        name: "unreplicated_failure",
        spec: "@40 fail-node 1\n",
        nodes: 8,
        replication: 1,
        arrival_rate: 12.0,
        rebuild_rate: 64,
    },
];

/// The opt-in cluster-scale stressor: a 48-node cluster under an
/// arrival flood, run only when `--scenario giant` asks for it (the
/// default sweep and its committed golden stay the canned 8-node five).
/// It rides the same cell runner as the sweep, so `--jobs` settings are
/// exercised at scale; rows remain bit-identical at any `--jobs`.
pub const GIANT_CLUSTER_SCENARIO: ClusterScenario = ClusterScenario {
    name: "giant",
    spec: "",
    nodes: 48,
    replication: 2,
    arrival_rate: 96.0,
    rebuild_rate: 64,
};

/// One scenario verdict — a JSONL line of the cluster campaign output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterCampaignRow {
    /// Scenario name.
    pub scenario: String,
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Replication degree.
    pub replication: u32,
    /// Requests that arrived at the gateway.
    pub arrivals: u64,
    /// Arrivals routed to a node.
    pub routed: u64,
    /// Arrivals shed by the cluster-level cap.
    pub cluster_refusals: u64,
    /// Arrivals with no routable replica.
    pub unroutable: u64,
    /// Streams migrated off failing nodes.
    pub migrations: u64,
    /// Streams lost to node failure (no surviving replica).
    pub lost_streams: u64,
    /// `fail-node` events applied.
    pub node_failures: u64,
    /// Cross-node rebuilds completed.
    pub node_rebuilds_completed: u64,
    /// Total cross-node rebuild blocks shipped.
    pub cross_node_rebuild_blocks: u64,
    /// Admissions across all nodes.
    pub admissions: u64,
    /// Completions across all nodes.
    pub completions: u64,
    /// Playback glitches across the cluster.
    pub hiccups: u64,
    /// Highest concurrently active stream count.
    pub peak_active: u64,
    /// Did every surviving stream keep its rate guarantee?
    pub guarantees_held: bool,
}

impl ClusterCampaignRow {
    fn from_metrics(scenario: &ClusterScenario, nodes: u32, m: &ClusterMetrics) -> Self {
        ClusterCampaignRow {
            scenario: scenario.name.to_string(),
            nodes,
            replication: scenario.replication,
            arrivals: m.arrivals,
            routed: m.routed,
            cluster_refusals: m.cluster_refusals,
            unroutable: m.unroutable,
            migrations: m.migrations,
            lost_streams: m.lost_streams,
            node_failures: m.node_failures,
            node_rebuilds_completed: m.node_rebuilds_completed,
            cross_node_rebuild_blocks: m.cross_node_rebuild_blocks,
            admissions: m.admissions,
            completions: m.completions,
            hiccups: m.hiccups,
            peak_active: m.peak_active,
            guarantees_held: m.hiccups == 0,
        }
    }
}

/// Builds the cluster config for one campaign scenario:
/// `scenario.nodes` nodes of the engine test geometry behind the
/// gateway, stepped on one thread.
///
/// # Panics
///
/// Panics if the canned spec fails to parse — a campaign table bug.
#[must_use]
pub fn cluster_campaign_config(
    scenario: &ClusterScenario,
    rounds: u64,
    seed: u64,
) -> ClusterConfig {
    let node = SimConfig {
        scheme: Scheme::DeclusteredParity,
        d: 8,
        p: 4,
        m: 1,
        q: 8,
        f: 2,
        block_bytes: 1 << 20,
        catalog_clips: 1, // overridden per node by the placement map
        clip_len: 20,
        clip_len_spread: 0,
        arrival_rate: 0.0, // the gateway generates all arrivals
        zipf_theta: 0.0,
        rounds,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: false,
        content_bytes: 256,
        seed,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: false,
        threads: 1,
        trace: cms_sim::TraceSpec::off(),
    };
    let faults = (!scenario.spec.is_empty()).then(|| {
        // lint: allow(P001) canned table specs are parse-tested; a bad one is a build bug
        FaultSchedule::parse(scenario.spec).expect("canned spec must parse")
    });
    ClusterConfig {
        nodes: scenario.nodes,
        replication: scenario.replication,
        catalog_clips: 64,
        node,
        arrival_rate: scenario.arrival_rate,
        zipf_theta: 0.0,
        rounds,
        rebuild_rate: scenario.rebuild_rate,
        rebuild_fanout: 2,
        faults,
        seed,
        threads: 1,
        trace: cms_trace::TraceSpec::off(),
    }
}

/// Runs the cluster campaign: every scenario, `jobs` runs in flight at
/// once (0 = one per task). Rows come back in fixed scenario order and
/// are bit-identical at any `jobs` setting. `filter` restricts to one
/// scenario.
#[must_use]
pub fn cluster_campaign_rows(
    rounds: u64,
    seed: u64,
    jobs: usize,
    filter: Option<&str>,
) -> Vec<ClusterCampaignRow> {
    let tasks: Vec<&ClusterScenario> = CLUSTER_SCENARIOS
        .iter()
        // The giant stressor is opt-in: it joins the task list only when
        // named, so the default sweep (and its golden) stays the canned
        // 8-node five.
        .chain(std::iter::once(&GIANT_CLUSTER_SCENARIO).filter(|_| filter == Some("giant")))
        .filter(|sc| filter.is_none_or(|f| f == sc.name))
        .collect();
    run_cells(&tasks, jobs, |&scenario| {
        let cfg = cluster_campaign_config(scenario, rounds, seed);
        let nodes = cfg.nodes;
        // lint: allow(P001) the fixed campaign geometry always constructs
        let sim = ClusterSim::new(cfg).expect("campaign cluster must construct");
        ClusterCampaignRow::from_metrics(scenario, nodes, &sim.run().metrics)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::to_jsonl;

    #[test]
    fn scenario_specs_parse_and_validate_for_the_cluster() {
        for sc in &CLUSTER_SCENARIOS {
            let cfg = cluster_campaign_config(sc, 60, 7);
            cfg.validate().expect(sc.name);
        }
    }

    #[test]
    fn jobs_do_not_change_rows() {
        let seq = cluster_campaign_rows(60, 7, 1, Some("fail_migrate_rebuild"));
        let par = cluster_campaign_rows(60, 7, 8, Some("fail_migrate_rebuild"));
        assert_eq!(seq, par);
        assert_eq!(to_jsonl(&seq), to_jsonl(&par));
    }

    #[test]
    fn giant_is_opt_in_and_jobs_invariant() {
        // Not part of the default sweep…
        let rows = cluster_campaign_rows(20, 7, 0, None);
        assert!(rows.iter().all(|r| r.scenario != "giant"));
        // …but runs through the same cell runner when named, with rows
        // identical at any jobs setting.
        let seq = cluster_campaign_rows(60, 7, 1, Some("giant"));
        let par = cluster_campaign_rows(60, 7, 8, Some("giant"));
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].nodes, 48);
        assert!(seq[0].admissions > 0, "the flood must admit streams");
        assert_eq!(seq[0].hiccups, 0);
    }

    #[test]
    fn scenarios_show_their_failure_modes() {
        let rows = cluster_campaign_rows(120, 7, 0, None);
        assert_eq!(rows.len(), CLUSTER_SCENARIOS.len());
        let by_name = |n: &str| rows.iter().find(|r| r.scenario == n).expect(n);
        assert_eq!(by_name("steady").migrations, 0);
        assert_eq!(by_name("steady").lost_streams, 0);
        assert!(by_name("node_failure").migrations > 0, "replicas absorb the streams");
        assert_eq!(by_name("node_failure").lost_streams, 0);
        assert!(by_name("fail_migrate_rebuild").node_rebuilds_completed == 1);
        assert!(by_name("fail_migrate_rebuild").cross_node_rebuild_blocks > 0);
        assert!(by_name("unreplicated_failure").lost_streams > 0, "r=1 has no fallback");
        assert!(by_name("unreplicated_failure").unroutable > 0);
        for r in &rows {
            assert_eq!(r.hiccups, 0, "{}: surviving streams keep their guarantee", r.scenario);
            assert_eq!(r.arrivals, r.routed + r.cluster_refusals + r.unroutable, "{}", r.scenario);
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let rows = cluster_campaign_rows(60, 7, 0, Some("steady"));
        let text = to_jsonl(&rows);
        let back: Vec<ClusterCampaignRow> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        assert_eq!(rows, back);
    }
}
