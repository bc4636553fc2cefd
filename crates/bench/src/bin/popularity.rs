//! Experiment A4 — clip-popularity skew (extension).
//!
//! The paper draws requested clips uniformly; real video-on-demand
//! workloads are Zipf-skewed. Because every stream gets its own buffer
//! and bandwidth (no inter-stream caching in the paper's architecture),
//! skew should barely change throughput for the declustered scheme (start
//! positions are spread by placement), but it concentrates start disks
//! for the clustered schemes when popular clips share a cluster — the
//! experiment measures how much.
//!
//! Usage: `cargo run --release -p cms-bench --bin popularity [-- --json] [--trace PATH] [--trace-rounds N]`

#![forbid(unsafe_code)]

use cms_bench::BenchArgs;
use cms_core::Scheme;
use cms_model::{tuned_point, ModelInput};
use cms_sim::{SimConfig, Simulator};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    scheme: Scheme,
    theta: f64,
    admitted: u64,
    mean_wait: f64,
    p95_wait: u64,
}

fn main() {
    let args = BenchArgs::parse();
    let trace = args.trace_spec();
    let input = ModelInput::sigmod96(268_435_456).with_storage_blocks(75_000);
    let mut rows = Vec::new();
    for scheme in [
        Scheme::DeclusteredParity,
        Scheme::PrefetchParityDisks,
        Scheme::StreamingRaid,
    ] {
        for theta in [0.0f64, 0.5, 1.0] {
            let point = tuned_point(scheme, &input, 4, 1).expect("feasible");
            let mut cfg = SimConfig::sigmod96(scheme, &point, 32);
            cfg.zipf_theta = theta;
            cfg.rounds = 600;
            cfg.trace = trace.labeled(&format!("{scheme:?}-theta{theta}"));
            let m = Simulator::new(cfg).expect("constructs").run();
            assert_eq!(m.hiccups, 0, "{scheme} θ={theta}");
            rows.push(Row {
                scheme,
                theta,
                admitted: m.admitted,
                mean_wait: m.mean_wait(),
                p95_wait: m.wait_percentile(0.95),
            });
        }
    }
    if args.json() {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }
    println!("== A4: popularity skew (Zipf θ), p = 4, 256 MB, 600 rounds ==");
    println!(
        "{:<34} {:>5} {:>9} {:>11} {:>9}",
        "scheme", "θ", "admitted", "mean wait", "p95 wait"
    );
    for r in &rows {
        println!(
            "{:<34} {:>5} {:>9} {:>11.1} {:>9}",
            r.scheme.label(),
            r.theta,
            r.admitted,
            r.mean_wait,
            r.p95_wait
        );
    }
}
