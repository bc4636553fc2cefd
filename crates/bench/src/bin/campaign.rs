//! Runs the fault-schedule campaign: canned multi-event failure
//! scenarios (hard failures, failure-during-rebuild, transient outages,
//! same-group double failures, slow-disk windows) swept across a
//! declustered, a clustered and the no-redundancy scheme, one JSONL
//! verdict per run.
//!
//! Usage: `cargo run --release -p cms-bench --bin campaign [-- --out PATH] [--jobs N] [--scenario NAME] [--list] [--rounds N] [--seed S]`
//!
//! `--jobs` is the number of simulations in flight at once (0 = one per
//! task); each simulation runs its engine at one thread. `--jobs` does
//! not change a byte of the output — CI regenerates the sweep at
//! `--jobs 1` and `--jobs 8` and diffs both against the committed
//! golden (`crates/bench/goldens/campaign.jsonl`). An unknown
//! `--scenario` or an unwritable `--out` exits 2. Regenerate the golden
//! with:
//!
//! ```text
//! cargo run --release -p cms-bench --bin campaign -- --out crates/bench/goldens/campaign.jsonl
//! ```

#![forbid(unsafe_code)]

use cms_bench::cli::fail;
use cms_bench::{campaign_rows, to_jsonl, BenchArgs, SCENARIOS};

fn main() {
    let args = BenchArgs::parse();
    if args.flag("--list") {
        for sc in &SCENARIOS {
            println!("{:<28} {}", sc.name, sc.spec.replace('\n', "; "));
        }
        return;
    }
    let rounds = args.rounds_or(120);
    let seed = args.seed_or(7);
    let jobs = args.u64_value("--jobs").unwrap_or(0) as usize;
    let filter = args.value("--scenario");
    let rows = campaign_rows(rounds, seed, jobs, filter);
    if let Some(f) = filter.filter(|_| rows.is_empty()) {
        fail("campaign", format_args!("unknown scenario {f:?}; try --list"));
    }
    args.emit("campaign", &to_jsonl(&rows), rows.len());
    // Invariants every sweep must uphold, whatever the flags: verified
    // reconstructions never mismatch, and a lost stream is always the
    // result of a multi-failure scenario.
    for r in &rows {
        assert_eq!(r.parity_mismatches, 0, "{}/{}: corrupt reconstruction", r.scenario, r.scheme);
    }
}
