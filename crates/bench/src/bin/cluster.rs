//! Runs the cluster campaign: canned node-failure scenarios (steady
//! state, unrepaired node failure, fail→migrate→rebuild, concurrent
//! double failure, unreplicated failure) on an 8-node cluster, one JSONL
//! verdict per scenario.
//!
//! Usage: `cargo run --release -p cms-bench --bin cluster [-- --out PATH] [--jobs N] [--scenario NAME] [--list] [--rounds N] [--seed S]`
//!
//! `--jobs` is the number of cluster simulations in flight at once (0 =
//! one per task); each cluster steps its nodes on one thread. `--jobs`
//! does not change a byte of the output — CI regenerates the sweep at
//! `--jobs 1` and `--jobs 8` and diffs both against the committed golden
//! (`crates/bench/goldens/cluster_campaign.jsonl`). An unknown
//! `--scenario` or an unwritable `--out` exits 2. Regenerate the golden
//! with:
//!
//! ```text
//! cargo run --release -p cms-bench --bin cluster -- --out crates/bench/goldens/cluster_campaign.jsonl
//! ```

#![forbid(unsafe_code)]

use cms_bench::cli::fail;
use cms_bench::{cluster_campaign_rows, to_jsonl, BenchArgs, CLUSTER_SCENARIOS};

fn main() {
    let args = BenchArgs::parse();
    if args.flag("--list") {
        for sc in &CLUSTER_SCENARIOS {
            let spec = if sc.spec.is_empty() { "(fault-free)" } else { sc.spec };
            println!("{:<24} r={} {}", sc.name, sc.replication, spec.replace('\n', "; "));
        }
        return;
    }
    let rounds = args.rounds_or(120);
    let seed = args.seed_or(7);
    let jobs = args.u64_value("--jobs").unwrap_or(0) as usize;
    let filter = args.value("--scenario");
    let rows = cluster_campaign_rows(rounds, seed, jobs, filter);
    if let Some(f) = filter.filter(|_| rows.is_empty()) {
        fail("cluster", format_args!("unknown scenario {f:?}; try --list"));
    }
    args.emit("cluster", &to_jsonl(&rows), rows.len());
    // Invariants every sweep must uphold, whatever the flags: surviving
    // streams never glitch, and arrivals are fully accounted for.
    for r in &rows {
        assert_eq!(r.hiccups, 0, "{}: a surviving stream glitched", r.scenario);
        assert_eq!(
            r.arrivals,
            r.routed + r.cluster_refusals + r.unroutable,
            "{}: arrivals not conserved",
            r.scenario
        );
    }
}
