//! Row generators for every table and figure in the paper's evaluation.

use cms_core::units::{gib, kib, mbps, mib};
use cms_core::{CmsError, ContinuityBudget, DiskId, DiskParams, Scheme};
use cms_model::{capacity, compute_optimal, CapacityPoint, ModelInput};
use cms_sim::{Metrics, SimConfig, Simulator, TraceSpec};
use serde::{Deserialize, Serialize};

/// The paper's array size (`d = 32`).
pub const PAPER_D: u32 = 32;

/// The paper's parity group sweep.
pub const PAPER_PS: [u32; 5] = [2, 4, 8, 16, 32];

/// The paper's two buffer configurations: (label, bytes).
pub const PAPER_BUFFERS: [(&str, u64); 2] = [("256MB", 268_435_456), ("2GB", 2_147_483_648)];

/// One point of Figure 5 (analytical clips vs parity group size).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Buffer label ("256MB" / "2GB").
    pub buffer: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Parity group size.
    pub p: u32,
    /// The solved capacity point (block size, q, f, total clips).
    pub point: CapacityPoint,
}

/// Generates Figure 5: the analytical number of concurrently serviceable
/// clips for the five schemes over the parity-group sweep, both buffer
/// sizes.
#[must_use]
pub fn fig5_rows() -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for (label, bytes) in PAPER_BUFFERS {
        let input = ModelInput::sigmod96(bytes);
        for scheme in Scheme::FIGURE_SCHEMES {
            for p in PAPER_PS {
                if let Ok(point) = capacity(scheme, &input, p) {
                    rows.push(Fig5Row { buffer: label.to_string(), scheme, p, point });
                }
            }
        }
    }
    rows
}

/// Builds the simulation capacity point for `(scheme, p)` — λ-aware for
/// the declustered family, so the simulated server's `(q, f, b)` match the
/// design its admission controller actually gets.
///
/// # Errors
///
/// Propagates the capacity solver's errors.
pub fn sim_point(
    scheme: Scheme,
    input: &ModelInput,
    p: u32,
    seed: u64,
) -> Result<CapacityPoint, CmsError> {
    cms_model::tuned_point(scheme, input, p, seed)
}

/// One point of Figure 6 (simulated clips serviced in 600 rounds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Buffer label.
    pub buffer: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Parity group size.
    pub p: u32,
    /// The capacity point driving the run.
    pub point: CapacityPoint,
    /// Full simulation metrics (the figure's y-axis is `metrics.admitted`).
    pub metrics: Metrics,
}

/// Generates Figure 6: the simulated experiment of §8.2 (1000 clips × 50
/// rounds, Poisson λ = 20 arrivals, uniform clip choice, 600 rounds) for
/// every scheme and parity group size, both buffer sizes. With tracing
/// on, each `(buffer, scheme, p)` run exports to its own file derived
/// from the spec's path via [`TraceSpec::labeled`]; pass
/// [`TraceSpec::off`] to trace nothing.
///
/// # Errors
///
/// Returns the first run's construction error, e.g. an unwritable trace
/// path.
pub fn fig6_rows(rounds: u64, seed: u64, trace: &TraceSpec) -> Result<Vec<Fig6Row>, CmsError> {
    let mut rows = Vec::new();
    // Block sizing must also respect storage: 1000 clips × 50 blocks plus
    // headroom for the start-jitter padding.
    let storage_blocks = 1000 * 50 * 3 / 2;
    for (label, bytes) in PAPER_BUFFERS {
        let input = ModelInput::sigmod96(bytes).with_storage_blocks(storage_blocks);
        for scheme in Scheme::FIGURE_SCHEMES {
            for p in PAPER_PS {
                let Ok(point) = sim_point(scheme, &input, p, seed) else {
                    continue;
                };
                let mut cfg = SimConfig::sigmod96(scheme, &point, PAPER_D);
                cfg.rounds = rounds;
                cfg.seed = seed;
                cfg.trace = trace.labeled(&format!("{label}-{scheme:?}-p{p}"));
                let metrics = Simulator::new(cfg)?.run();
                rows.push(Fig6Row { buffer: label.to_string(), scheme, p, point, metrics });
            }
        }
    }
    Ok(rows)
}

/// One row of the Equation 1 table (E5): per-disk budget vs block size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QRow {
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Round duration in seconds.
    pub round_seconds: f64,
    /// The per-disk budget `q`.
    pub q: u32,
    /// Disk utilization at load `q`.
    pub utilization: f64,
}

/// Generates the Equation 1 table over a sweep of block sizes for the
/// Figure 1 reference disk and MPEG-1 playback.
#[must_use]
pub fn q_table_rows() -> Vec<QRow> {
    let disk = DiskParams::sigmod96();
    [32u64, 64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .filter_map(|kb| {
            let b = kib(kb);
            ContinuityBudget::solve(&disk, b, mbps(1.5)).ok().map(|budget| QRow {
                block_bytes: b,
                round_seconds: budget.round,
                q: budget.q,
                utilization: budget.utilization(budget.q),
            })
        })
        .collect()
}

/// One row of the `computeOptimal` table (E6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimalRow {
    /// Buffer label.
    pub buffer: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Whether only exact λ = 1 designs were admitted (the paper's
    /// "if a BIBD exists" guard).
    pub exact_designs_only: bool,
    /// The optimal point.
    pub point: CapacityPoint,
}

/// Generates the Figure 4 `computeOptimal` results for every scheme and
/// both buffer sizes, with and without the exact-design guard.
#[must_use]
pub fn optimal_rows() -> Vec<OptimalRow> {
    let mut rows = Vec::new();
    for (label, bytes) in PAPER_BUFFERS {
        let input = ModelInput::sigmod96(bytes);
        for scheme in Scheme::FIGURE_SCHEMES {
            for exact in [false, true] {
                if let Ok(point) = compute_optimal(scheme, &input, 2, exact) {
                    rows.push(OptimalRow {
                        buffer: label.to_string(),
                        scheme,
                        exact_designs_only: exact,
                        point,
                    });
                }
            }
        }
    }
    rows
}

/// One row of the failure drill (E7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrillRow {
    /// Scheme.
    pub scheme: Scheme,
    /// Parity group size.
    pub p: u32,
    /// Metrics of the run with a disk killed mid-run and byte-level
    /// verification on.
    pub metrics: Metrics,
}

/// Runs the failure drill: for every scheme at one representative parity
/// group size, kill a disk mid-run with verification enabled. Schemes 1–5
/// must report zero hiccups and zero parity mismatches; the non-clustered
/// baseline is expected to hiccup under saturation (the §7.4 caveat).
/// With tracing on, each scheme's failure→recovery→rebuild event stream
/// exports to its own file derived from the spec's path via
/// [`TraceSpec::labeled`]; pass [`TraceSpec::off`] to trace nothing.
///
/// # Errors
///
/// Returns the first run's construction error, e.g. an unwritable trace
/// path.
pub fn failure_drill(rounds: u64, seed: u64, trace: &TraceSpec) -> Result<Vec<DrillRow>, CmsError> {
    let input = ModelInput::sigmod96(mib(256)).with_storage_blocks(1000 * 50 * 3 / 2);
    let mut rows = Vec::new();
    for scheme in Scheme::ALL {
        let p = 4;
        let Ok(point) = sim_point(scheme, &input, p, seed) else {
            continue;
        };
        let mut cfg = SimConfig::sigmod96(scheme, &point, PAPER_D)
            .with_failure(rounds / 3, DiskId(5))
            .with_verification();
        cfg.rounds = rounds;
        cfg.seed = seed;
        cfg.trace = trace.labeled(&format!("{scheme:?}-p{p}"));
        let metrics = Simulator::new(cfg)?.run();
        rows.push(DrillRow { scheme, p, metrics });
    }
    Ok(rows)
}

/// Sanity helper shared by tests: 2 GB input.
#[must_use]
pub fn large_input() -> ModelInput {
    ModelInput::sigmod96(gib(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_covers_the_grid() {
        let rows = fig5_rows();
        // 2 buffers × 5 schemes × 5 p-values = 50 points, all feasible.
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r.point.total_clips > 0));
    }

    #[test]
    fn q_table_matches_equation1() {
        let rows = q_table_rows();
        assert!(!rows.is_empty());
        // q grows with block size; utilization stays within 1.
        for w in rows.windows(2) {
            assert!(w[1].q >= w[0].q);
        }
        for r in &rows {
            assert!(r.utilization <= 1.0 + 1e-9);
            assert!(r.round_seconds > 0.0);
        }
        // The 256 KiB reference point: q = 24 (hand-checked).
        let r256 = rows.iter().find(|r| r.block_bytes == 256 * 1024).unwrap();
        assert_eq!(r256.q, 24);
    }

    #[test]
    fn optimal_rows_cover_schemes() {
        let rows = optimal_rows();
        for scheme in Scheme::FIGURE_SCHEMES {
            assert!(
                rows.iter().any(|r| r.scheme == scheme && !r.exact_designs_only),
                "{scheme} missing"
            );
        }
        // Exact-design guard never beats the relaxed optimum.
        for r in rows.iter().filter(|r| r.exact_designs_only) {
            let relaxed = rows
                .iter()
                .find(|x| x.scheme == r.scheme && x.buffer == r.buffer && !x.exact_designs_only)
                .unwrap();
            assert!(relaxed.point.total_clips >= r.point.total_clips);
        }
    }

    #[test]
    fn sim_point_is_lambda_aware_for_declustered() {
        let input = ModelInput::sigmod96(mib(256));
        let paper = capacity(Scheme::DeclusteredParity, &input, 8).unwrap();
        let sim = sim_point(Scheme::DeclusteredParity, &input, 8, 1).unwrap();
        // (32, 8) has λ_max = 2 ⇒ the sim point reserves more and admits
        // fewer clips than the paper's λ = 1 algebra.
        assert!(sim.total_clips <= paper.total_clips);
        // Non-PGT schemes are unchanged.
        let a = capacity(Scheme::StreamingRaid, &input, 8).unwrap();
        let b = sim_point(Scheme::StreamingRaid, &input, 8, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn short_failure_drill_upholds_guarantees() {
        for row in failure_drill(90, 3, &TraceSpec::off()).unwrap() {
            assert_eq!(row.metrics.parity_mismatches, 0, "{}", row.scheme);
            if row.scheme != Scheme::NonClustered {
                assert_eq!(row.metrics.hiccups, 0, "{}", row.scheme);
            }
        }
    }
}
