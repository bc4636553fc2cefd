//! Experiment A3 — background rebuild time vs parity group size and load.
//!
//! The declustering literature's companion result (Holland & Gibson,
//! ASPLOS'92; Muntz & Lui, VLDB'90): spreading parity groups over the
//! whole array parallelizes reconstruction, so a failed disk rebuilds
//! onto a spare faster — and the gap widens under client load because
//! rebuild may only use slack bandwidth. This experiment measures rounds
//! to full redundancy for the declustered scheme across parity group
//! sizes and client loads, at fixed hardware.
//!
//! Usage: `cargo run --release -p cms-bench --bin rebuild [-- --json] [--trace PATH] [--trace-rounds N]`
//!
//! `--trace` exports each `(scheme, p, λ)` run's event stream to its own
//! file (JSONL, or CSV when the path ends in `.csv`).

#![forbid(unsafe_code)]

use cms_bench::BenchArgs;
use cms_core::{DiskId, Scheme};
use cms_model::{tuned_point, ModelInput};
use cms_sim::{SimConfig, Simulator};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    scheme: Scheme,
    p: u32,
    arrival_rate: f64,
    rebuild_rounds: Option<u64>,
    rebuild_reads: u64,
    hiccups: u64,
}

fn main() {
    let args = BenchArgs::parse();
    let trace = args.trace_spec();
    let input = ModelInput::sigmod96(268_435_456).with_storage_blocks(24_000);
    let fail_round = 50u64;
    let mut rows = Vec::new();
    for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchParityDisks] {
        for p in [2u32, 4, 8, 16] {
            for rate in [0.0f64, 5.0, 15.0] {
                let Ok(point) = tuned_point(scheme, &input, p, 1) else {
                    continue;
                };
                let mut cfg = SimConfig::sigmod96(scheme, &point, 32);
                cfg.catalog_clips = 300; // smaller library → measurable rebuild
                cfg.arrival_rate = rate;
                cfg.rounds = 6_000;
                cfg.auto_rebuild = true;
                cfg.trace = trace.labeled(&format!("{scheme:?}-p{p}-lambda{rate}"));
                cfg = cfg.with_failure(fail_round, DiskId(1));
                let m = Simulator::new(cfg).expect("constructs").run();
                assert_eq!(m.hiccups, 0, "{scheme} p={p} λ={rate}");
                rows.push(Row {
                    scheme,
                    p,
                    arrival_rate: rate,
                    rebuild_rounds: m.rebuild_completed_round.map(|r| r - fail_round),
                    rebuild_reads: m.rebuild_reads,
                    hiccups: m.hiccups,
                });
            }
        }
    }
    if args.json() {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }
    println!("== A3: rounds to rebuild a failed disk onto a spare (slack bandwidth only) ==");
    println!(
        "{:<34} {:>4} {:>6} {:>15} {:>14}",
        "scheme", "p", "λ", "rebuild rounds", "rebuild reads"
    );
    for r in &rows {
        println!(
            "{:<34} {:>4} {:>6} {:>15} {:>14}",
            r.scheme.label(),
            r.p,
            r.arrival_rate,
            r.rebuild_rounds.map_or("unfinished".into(), |x| x.to_string()),
            r.rebuild_reads
        );
    }
}
