//! Ablation A1 — static contingency (§4) vs dynamic reservation (§5).
//!
//! Section 5's motivation: with a static `f`, a clip can be rejected
//! because its particular (disk, row) class is full even when the disk
//! itself has bandwidth to spare; choosing `f` larger wastes bandwidth
//! permanently. Dynamic reservation sizes the contingency to the actual
//! workload. This ablation runs both schemes at identical hardware and
//! sweeps the arrival rate from light to saturating load, reporting
//! admitted clips and mean admission wait.
//!
//! Usage: `cargo run --release -p cms-bench --bin ablation_dynamic [-- --json] [--trace PATH] [--trace-rounds N]`

#![forbid(unsafe_code)]

use cms_bench::BenchArgs;
use cms_core::Scheme;
use cms_model::{tuned_point, ModelInput};
use cms_sim::{SimConfig, Simulator};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    arrival_rate: f64,
    scheme: Scheme,
    admitted: u64,
    mean_wait: f64,
    max_wait: u64,
    peak_active: u64,
}

fn main() {
    let args = BenchArgs::parse();
    let trace = args.trace_spec();
    let input = ModelInput::sigmod96(268_435_456).with_storage_blocks(75_000);
    let p = 4;
    let mut rows = Vec::new();
    for rate in [2.0f64, 5.0, 10.0, 20.0] {
        for scheme in [Scheme::DeclusteredParity, Scheme::DynamicReservation] {
            let point = tuned_point(scheme, &input, p, 1).expect("feasible");
            let mut cfg = SimConfig::sigmod96(scheme, &point, 32);
            cfg.arrival_rate = rate;
            cfg.rounds = 600;
            cfg.trace = trace.labeled(&format!("{scheme:?}-lambda{rate}"));
            let m = Simulator::new(cfg).expect("constructs").run();
            assert_eq!(m.hiccups, 0, "{scheme} must not hiccup");
            rows.push(Row {
                arrival_rate: rate,
                scheme,
                admitted: m.admitted,
                mean_wait: m.mean_wait(),
                max_wait: m.wait_rounds_max,
                peak_active: m.peak_active,
            });
        }
    }
    if args.json() {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }
    println!("== A1: static f (§4) vs dynamic reservation (§5), d = 32, p = {p}, 600 rounds ==");
    println!(
        "{:<8} {:<24} {:>9} {:>11} {:>9} {:>12}",
        "λ", "scheme", "admitted", "mean wait", "max wait", "peak active"
    );
    for r in &rows {
        println!(
            "{:<8} {:<24} {:>9} {:>11.2} {:>9} {:>12}",
            r.arrival_rate,
            r.scheme.label(),
            r.admitted,
            r.mean_wait,
            r.max_wait,
            r.peak_active
        );
    }
}
