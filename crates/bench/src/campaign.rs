//! The fault-schedule campaign: canned multi-event failure scenarios
//! swept across schemes, emitting one JSONL verdict per (scenario,
//! scheme) run.
//!
//! Each scenario is a [`cms_fault::FaultSchedule`] spec plus workload
//! knobs, run on a small 8-disk array (the engine test geometry: p = 4,
//! q = 8, f = 2) so a full sweep finishes in seconds. The rows are
//! emitted in fixed (scenario, scheme) order and every simulation is
//! bit-identical at any `--jobs` setting, so the output can be diffed
//! byte-for-byte against the committed golden
//! (`crates/bench/goldens/campaign.jsonl`) — CI's `fault-campaign` job
//! does exactly that at `--jobs 1` and `--jobs 8`.
//!
//! `run_cells` and [`to_jsonl`] are shared with the cluster campaign:
//! the campaign cell is the harness's unit of parallelism, and every
//! engine inside a cell runs at one thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use cms_core::Scheme;
use cms_sim::{FaultSchedule, Metrics, SimConfig, Simulator};
use serde::{Deserialize, Serialize};

/// One canned fault scenario: a schedule spec plus the workload knobs
/// that make its failure mode observable.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name (the JSONL key and `--scenario` filter).
    pub name: &'static str,
    /// The fault-schedule spec, in [`FaultSchedule::parse`] syntax.
    pub spec: &'static str,
    /// Rebuild the failed disk onto a hot spare in the background.
    pub auto_rebuild: bool,
    /// Enforce the degraded-mode admission cap while any disk is down.
    pub degraded_admission: bool,
    /// Mean Poisson arrivals per round.
    pub arrival_rate: f64,
    /// Redundancy shards per parity group (1 = XOR parity; `m >= 2` =
    /// Reed–Solomon, clustered parity-disk schemes only — incompatible
    /// schemes are skipped for that scenario).
    pub m: u32,
}

/// The canned scenario set. Disks 1 and 3 share parity groups in the
/// seed-7 (8, 4) declustered design (and a cluster in the clustered
/// placements), so the double-failure scenarios provably overlap; a
/// complementary pair such as 1 and 2 would reconstruct around both
/// failures and lose nothing.
pub const SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "single_failure",
        spec: "@30 fail 1\n",
        auto_rebuild: false,
        degraded_admission: true,
        arrival_rate: 20.0, // overload: the degraded cap must bite
        m: 1,
    },
    Scenario {
        name: "fail_during_rebuild",
        spec: "@30 fail 1\n@50 fail 3\n",
        auto_rebuild: true,
        degraded_admission: false,
        arrival_rate: 3.0,
        m: 1,
    },
    Scenario {
        name: "transient_blip",
        spec: "@30 transient 2 rounds=10\n",
        auto_rebuild: false,
        degraded_admission: false,
        arrival_rate: 3.0,
        m: 1,
    },
    Scenario {
        name: "double_failure_same_group",
        spec: "@30 fail 1\n@40 fail 3\n",
        auto_rebuild: false,
        degraded_admission: false,
        arrival_rate: 3.0,
        m: 1,
    },
    Scenario {
        name: "slow_disk",
        spec: "@30 slow 2 factor=4 rounds=20\n",
        auto_rebuild: false,
        degraded_admission: false,
        arrival_rate: 1.0,
        m: 1,
    },
    // The differential pair for multi-failure erasure coding: the same
    // two-disk loss, first under single XOR parity (streams sharing a
    // group with both disks are gone), then under RS(k, 2) (two erasures
    // per group are decodable, so nothing is lost and the rebuild runs to
    // completion). Disks 1 and 2 share cluster 0 in every (8, 4)
    // clustered placement.
    Scenario {
        name: "double_disk_failure",
        spec: "@30 fail 1\n@40 fail 2\n",
        auto_rebuild: true,
        degraded_admission: false,
        arrival_rate: 3.0,
        m: 1,
    },
    Scenario {
        name: "double_disk_failure_rs2",
        spec: "@30 fail 1\n@40 fail 2\n",
        auto_rebuild: true,
        degraded_admission: false,
        arrival_rate: 3.0,
        m: 2,
    },
];

/// Whether `scheme` can run a scenario's redundancy level: `m >= 2`
/// needs the Reed–Solomon clustered placements.
#[must_use]
pub fn scheme_supports_redundancy(scheme: Scheme, m: u32) -> bool {
    m == 1 || matches!(scheme, Scheme::PrefetchParityDisks | Scheme::StreamingRaid)
}

/// Schemes the campaign sweeps: one declustered representative, one
/// clustered representative, and the no-redundancy baseline.
pub const CAMPAIGN_SCHEMES: [Scheme; 3] =
    [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks, Scheme::NonClustered];

/// One (scenario, scheme) verdict — a JSONL line of the campaign output.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Scenario name.
    pub scenario: String,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Redundancy shards per parity group the run used (serialized only
    /// when it departs from 1, so the pre-existing single-parity golden
    /// lines stay byte-identical).
    pub m: u32,
    /// Playback glitches over the whole run.
    pub hiccups: u64,
    /// Streams deterministically declared lost (second failure in their
    /// parity group).
    pub lost_streams: u64,
    /// Admissions refused by the degraded-mode cap.
    pub degraded_refusals: u64,
    /// Rebuild blocks abandoned because a second failure removed a
    /// needed source.
    pub unrecoverable_blocks: u64,
    /// Round the background rebuild finished, if it did.
    pub rebuild_completed_round: Option<u64>,
    /// Requests admitted.
    pub admitted: u64,
    /// Clips played to completion.
    pub completed: u64,
    /// Failure-mode recovery reads issued.
    pub recovery_reads: u64,
    /// Background-rebuild source reads issued.
    pub rebuild_reads: u64,
    /// Reconstructed blocks that failed byte-level verification (always
    /// 0 — anything else is a layout/codec bug).
    pub parity_mismatches: u64,
    /// Did the run stay glitch-free end to end?
    pub guarantees_held: bool,
}

// Hand-rolled (de)serialization: `m` is emitted only when it departs
// from 1 and defaults to 1 on read, keeping the historical single-parity
// golden lines byte-identical (the vendored derive has no
// `#[serde(default/skip_serializing_if)]`).
impl Serialize for CampaignRow {
    fn serialize(&self) -> serde::Value {
        let mut fields = vec![
            ("scenario".to_string(), self.scenario.serialize()),
            ("scheme".to_string(), self.scheme.serialize()),
        ];
        if self.m != 1 {
            fields.push(("m".to_string(), self.m.serialize()));
        }
        fields.push(("hiccups".to_string(), self.hiccups.serialize()));
        fields.push(("lost_streams".to_string(), self.lost_streams.serialize()));
        fields.push(("degraded_refusals".to_string(), self.degraded_refusals.serialize()));
        fields.push((
            "unrecoverable_blocks".to_string(),
            self.unrecoverable_blocks.serialize(),
        ));
        fields.push((
            "rebuild_completed_round".to_string(),
            self.rebuild_completed_round.serialize(),
        ));
        fields.push(("admitted".to_string(), self.admitted.serialize()));
        fields.push(("completed".to_string(), self.completed.serialize()));
        fields.push(("recovery_reads".to_string(), self.recovery_reads.serialize()));
        fields.push(("rebuild_reads".to_string(), self.rebuild_reads.serialize()));
        fields.push(("parity_mismatches".to_string(), self.parity_mismatches.serialize()));
        fields.push(("guarantees_held".to_string(), self.guarantees_held.serialize()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for CampaignRow {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for CampaignRow"))?;
        let m = match fields.iter().find(|(k, _)| k == "m") {
            Some(_) => serde::from_field(fields, "m")?,
            None => 1,
        };
        Ok(CampaignRow {
            scenario: serde::from_field(fields, "scenario")?,
            scheme: serde::from_field(fields, "scheme")?,
            m,
            hiccups: serde::from_field(fields, "hiccups")?,
            lost_streams: serde::from_field(fields, "lost_streams")?,
            degraded_refusals: serde::from_field(fields, "degraded_refusals")?,
            unrecoverable_blocks: serde::from_field(fields, "unrecoverable_blocks")?,
            rebuild_completed_round: serde::from_field(fields, "rebuild_completed_round")?,
            admitted: serde::from_field(fields, "admitted")?,
            completed: serde::from_field(fields, "completed")?,
            recovery_reads: serde::from_field(fields, "recovery_reads")?,
            rebuild_reads: serde::from_field(fields, "rebuild_reads")?,
            parity_mismatches: serde::from_field(fields, "parity_mismatches")?,
            guarantees_held: serde::from_field(fields, "guarantees_held")?,
        })
    }
}

impl CampaignRow {
    fn from_metrics(scenario: &Scenario, scheme: Scheme, m: &Metrics) -> Self {
        CampaignRow {
            scenario: scenario.name.to_string(),
            scheme,
            m: scenario.m,
            hiccups: m.hiccups,
            lost_streams: m.lost_streams,
            degraded_refusals: m.degraded_refusals,
            unrecoverable_blocks: m.unrecoverable_blocks,
            rebuild_completed_round: m.rebuild_completed_round,
            admitted: m.admitted,
            completed: m.completed,
            recovery_reads: m.recovery_reads,
            rebuild_reads: m.rebuild_reads,
            parity_mismatches: m.parity_mismatches,
            guarantees_held: m.guarantees_held(),
        }
    }
}

/// Builds the simulation config for one campaign run: the engine test
/// geometry (d = 8, p = 4, q = 8, f = 2) with byte-level verification
/// on, parameterized by the scenario's knobs, at one disk-service
/// thread.
///
/// # Panics
///
/// Panics if the canned spec fails to parse — a campaign table bug.
#[must_use]
pub fn campaign_config(scenario: &Scenario, scheme: Scheme, rounds: u64, seed: u64) -> SimConfig {
    // lint: allow(P001) canned table specs are parse-tested; a bad one is a build bug
    let faults = FaultSchedule::parse(scenario.spec).expect("canned spec must parse");
    SimConfig {
        scheme,
        d: 8,
        p: 4,
        m: scenario.m,
        q: 8,
        f: 2,
        block_bytes: 1 << 20,
        catalog_clips: 40,
        clip_len: 20,
        clip_len_spread: 0,
        arrival_rate: scenario.arrival_rate,
        zipf_theta: 0.0,
        rounds,
        failure: None,
        faults: Some(faults),
        degraded_admission: scenario.degraded_admission,
        verify_parity: true,
        content_bytes: 256,
        seed,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: scenario.auto_rebuild,
        threads: 1,
        trace: cms_sim::TraceSpec::off(),
    }
}

/// Runs `cell` over every task with `jobs` cells in flight at once (0 =
/// one per task) and returns the results in task order, whatever order
/// the workers finish in. Cells are pure functions of their task, so the
/// output is bit-identical at any `jobs`.
pub(crate) fn run_cells<T: Sync, R: Send + Sync>(
    tasks: &[T],
    jobs: usize,
    cell: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = if jobs == 0 { tasks.len() } else { jobs }.clamp(1, tasks.len().max(1));
    let results: Vec<OnceLock<R>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                // Each index is claimed by exactly one worker, so the slot
                // is still empty.
                let _ = results[i].set(cell(task));
            });
        }
    });
    // A panicking cell re-panics out of the scope, so every slot is set.
    results.into_iter().filter_map(OnceLock::into_inner).collect()
}

/// Runs the campaign: every scenario × scheme, `jobs` runs in flight at
/// once (0 = one per task). Rows come back in fixed (scenario, scheme)
/// order and are bit-identical at any `jobs` setting. `filter`
/// restricts to one scenario by name.
#[must_use]
pub fn campaign_rows(
    rounds: u64,
    seed: u64,
    jobs: usize,
    filter: Option<&str>,
) -> Vec<CampaignRow> {
    let tasks: Vec<(&Scenario, Scheme)> = SCENARIOS
        .iter()
        .filter(|sc| filter.is_none_or(|f| f == sc.name))
        .flat_map(|sc| CAMPAIGN_SCHEMES.into_iter().map(move |scheme| (sc, scheme)))
        .filter(|&(sc, scheme)| scheme_supports_redundancy(scheme, sc.m))
        .collect();
    run_cells(&tasks, jobs, |&(scenario, scheme)| {
        let cfg = campaign_config(scenario, scheme, rounds, seed);
        // lint: allow(P001) the fixed campaign geometry always constructs
        let sim = Simulator::new(cfg).expect("campaign geometry must construct");
        CampaignRow::from_metrics(scenario, scheme, &sim.run())
    })
}

/// Serializes rows as JSONL (one compact JSON object per line) — the
/// on-disk and golden format of both campaigns.
///
/// # Panics
///
/// Panics if serialization fails (plain data; it cannot).
#[must_use]
pub fn to_jsonl<T: Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    for row in rows {
        // lint: allow(P001) plain-data serialization cannot fail
        out.push_str(&serde_json::to_string(row).expect("serializable"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_specs_parse_and_validate() {
        for sc in &SCENARIOS {
            let sched = FaultSchedule::parse(sc.spec).expect(sc.name);
            sched.validate(8).expect(sc.name);
        }
    }

    #[test]
    fn filter_restricts_to_one_scenario() {
        let rows = campaign_rows(60, 7, 0, Some("transient_blip"));
        assert_eq!(rows.len(), CAMPAIGN_SCHEMES.len());
        assert!(rows.iter().all(|r| r.scenario == "transient_blip"));
    }

    #[test]
    fn jobs_do_not_change_rows() {
        let seq = campaign_rows(60, 7, 1, Some("double_failure_same_group"));
        let par = campaign_rows(60, 7, 8, Some("double_failure_same_group"));
        assert_eq!(seq, par);
        assert_eq!(to_jsonl(&seq), to_jsonl(&par));
    }

    #[test]
    fn jsonl_round_trips() {
        let rows = campaign_rows(60, 7, 0, Some("slow_disk"));
        let text = to_jsonl(&rows);
        let back: Vec<CampaignRow> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        assert_eq!(rows, back);
    }
}
