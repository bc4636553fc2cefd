//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Workloads: `paper_saturated`, `fault_cycle`, `giant`, `cluster_churn`
//! (see `perfbench/README.md`). `--workload all` (the default) runs each
//! in a process of its own. `--trace 1` makes the traced run: per-layer
//! metrics, spans written to `DIR/spans-<workload>-seed<N>.jsonl` and the
//! per-layer table to `DIR/layers-<workload>-seed<N>.txt` (default
//! `DIR` is `.bench_out`). `--smoke` runs every workload briefly and
//! checks the metric schemas and that every gate fires on a violated
//! input.
//!
//! Exit codes: 0 when every gate passed, 1 when a gate failed or the
//! workload could not run, 2 for a usage error.

mod hostref;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hostref::HostRef;
use measure::{end_to_end, round_tail, run_trial, Metric, Trial};
use report::{check_schema, result_line, table, END_TO_END, GATED, PER_LAYER};
use spans::Spans;
use workload::{check_outcome, Workload, VARIANTS};

/// The default seed.
const DEFAULT_SEED: u64 = 1;
/// Trials per untraced run, at least: every input variant once.
const MIN_TRIALS: usize = VARIANTS;
/// Trials per untraced run, at most.
const MAX_TRIALS: usize = 20_000;

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench [--workload paper_saturated|fault_cycle|giant|cluster_churn|all] \
[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] | --smoke";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Unstepped cluster runs, one per variant (`None` for a single server).
type Replays = Vec<Option<(cms_cluster::ClusterMetrics, Vec<cms_sim::Metrics>)>>;

/// Gates every trial shares: outcome laws, the shape guard, identical
/// outcomes across trials of one variant and, for the cluster, stepped
/// gateway metrics equal to an unstepped run's. Each trial must match
/// the first trial of its variant in `reference`.
fn gate_trials(trials: &[Trial], reference: &[Trial], replays: &Replays) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, t) in trials.iter().enumerate() {
        let Some(first) = reference
            .iter()
            .find(|r| r.variant == t.variant)
            .map(|r| &r.outcome)
        else {
            errors.push(format!(
                "trial {i}: no untraced trial of variant {}",
                t.variant
            ));
            continue;
        };
        if let Err(e) = check_outcome(&t.outcome) {
            errors.push(format!("trial {i}: {e}"));
        }
        if let Err(e) = &t.guard {
            errors.push(format!("trial {i}: {e}"));
        }
        if let Err(e) = same_outcome(first, &t.outcome) {
            errors.push(format!("trial {i} (variant {}): {e}", t.variant));
        }
        let replay = replays
            .get(t.variant)
            .and_then(Option::as_ref)
            .map(|r| &r.0);
        if let (Some(stepped), Some(replay)) = (&t.cluster_metrics, replay) {
            if stepped != replay {
                errors.push(format!(
                    "trial {i}: stepped cluster metrics differ from an unstepped run"
                ));
            }
        }
    }
    errors
}

/// Two runs of the same seed must simulate exactly the same thing.
fn same_outcome(a: &workload::Outcome, b: &workload::Outcome) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "simulated outcomes differ (sim_digest {:016x} vs {:016x})",
            a.digest, b.digest
        ))
    }
}

/// Repeats trials until `seconds` have passed and at least `min` ran.
fn trials_for(
    w: Workload,
    seed: u64,
    seconds: f64,
    min: usize,
    href: &HostRef,
    replays: &Replays,
    mut spans: Option<&mut Spans>,
) -> Result<(Vec<Trial>, Vec<Trial>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // A traced run alternates untraced and traced trials of variant 0;
    // one pair is enough for the per-layer replays.
    let (min, variants) = if spans.is_some() {
        (1, 1)
    } else {
        (min, VARIANTS)
    };
    while plain.len() < min || (Instant::now() < deadline && plain.len() < MAX_TRIALS) {
        let v = plain.len() % variants;
        let replay = replays[v].as_ref();
        plain.push(run_trial(w, seed, v, href, replay, None)?);
        if let Some(s) = spans.as_deref_mut() {
            traced.push(run_trial(w, seed, v, href, replay, Some(s))?);
        }
    }
    Ok((plain, traced))
}

/// The whole result of one workload run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Every end-to-end metric, gated or not.
    e2e: Vec<Metric>,
    lines: Vec<String>,
    /// The first untraced trial, for the smoke mode's gate checks.
    first: Trial,
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_trials: usize,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let href = HostRef::new();
    let cfg = workload::config(w, seed).map_err(|e| e.to_string())?;
    let replays: Replays = (0..VARIANTS)
        .map(|v| {
            let c = workload::config(w, workload::variant_seed(seed, v)).ok()?;
            c.cluster_replay()
        })
        .collect();
    let mut spans = trace.then(Spans::new);
    let (plain, traced) = trials_for(
        w,
        seed,
        seconds,
        min_trials,
        &href,
        &replays,
        spans.as_mut(),
    )?;
    let mut errors = gate_trials(&plain, &plain, &replays);
    errors.extend(
        gate_trials(&traced, &plain, &replays)
            .into_iter()
            .map(|e| format!("traced {e}")),
    );
    let all: Vec<&Trial> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|t| t.window.sum.active).sum();
    let failed: u64 = all.iter().map(|t| t.outcome.ops_failed()).sum();

    let refs: Vec<f64> = plain.iter().map(|t| t.ref_s).collect();
    let (q, beyond) = round_tail(w);
    let mut lines = vec![
        format!(
            "workload {} seed {seed}: {} trials of {} timed rounds",
            w.name(),
            plain.len(),
            w.timed_rounds()
        ),
        format!(
            "  host reference s: median {:.6} min {:.6} max {:.6} (nominal {})",
            stats::median(&refs),
            refs.iter().copied().fold(f64::INFINITY, f64::min),
            refs.iter().copied().fold(0.0, f64::max),
            hostref::NOMINAL_REF_S
        ),
        format!(
            "  round_ms_tail is p{} of {} rounds per trial ({beyond} samples beyond it)",
            q * 100.0,
            w.timed_rounds()
        ),
        format!(
            "  ops {attempted} ops_failed {failed} sim_digest {:016x} (input variants: {})",
            measure::sim_digest(&plain),
            measure::variant_outcomes(&plain).len()
        ),
    ];
    for (i, t) in plain.iter().enumerate() {
        lines.push(format!(
            "  trial {i} (variant {}): ref_s {:.6} raw setup_s {:.6} raw round_ms_p50 {:.6} raw stream_rounds_per_s {:.1}",
            t.variant,
            t.ref_s,
            t.setup.total(),
            t.round_p50_s * 1e3,
            t.raw_stream_rounds_per_s()
        ));
    }
    let e2e = end_to_end(&plain);
    lines.push("  end-to-end:".into());
    lines.push(table(&e2e).trim_end().to_owned());

    let metrics = if trace {
        let spans = spans.unwrap_or_default();
        let built = traced
            .first()
            .and_then(|t| t.built.as_ref())
            .ok_or("traced run recorded no setup replay")?;
        let layers = layers::per_layer(&cfg, built, &plain, &traced, &spans)?;
        let stem = format!("{}-seed{seed}", w.name());
        let span_path = out_dir.join(format!("spans-{stem}.jsonl"));
        spans
            .write_jsonl(&span_path)
            .map_err(|e| format!("{}: {e}", span_path.display()))?;
        let table_text = table(&layers);
        let table_path = out_dir.join(format!("layers-{stem}.txt"));
        std::fs::write(&table_path, &table_text)
            .map_err(|e| format!("{}: {e}", table_path.display()))?;
        lines.push(format!(
            "  per-layer ({} spans in {}):",
            spans.len(),
            span_path.display()
        ));
        lines.push(table_text.trim_end().to_owned());
        layers
    } else {
        e2e.iter()
            .filter(|m| GATED.contains(&m.name))
            .cloned()
            .collect()
    };
    for e in &errors {
        lines.push(format!("  GATE FAILED: {e}"));
    }
    let first = plain.into_iter().next().ok_or("no trial ran")?;
    Ok(RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        e2e,
        lines,
        first,
    })
}

/// `--workload all`: each workload in a process of its own.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::from(1);
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    ExitCode::from(u8::from(!ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(&args.out_dir);
    }
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    match run_workload(
        w,
        args.seed,
        args.seconds,
        args.trace,
        MIN_TRIALS,
        &args.out_dir,
    ) {
        Ok(r) => {
            for l in &r.lines {
                println!("{l}");
            }
            let metrics: Vec<&Metric> = r.metrics.iter().collect();
            println!(
                "{}",
                result_line(r.correct, r.attempted, r.failed, &metrics)
            );
            ExitCode::from(u8::from(!r.correct))
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            ExitCode::from(1)
        }
    }
}

/// `--smoke`: every workload once untraced and once traced (one trial
/// each), checking the metric schemas, then every gate against a
/// deliberately violated input.
fn smoke(out_dir: &Path) -> ExitCode {
    let mut errors = Vec::new();
    let mut attempted = 0;
    for w in Workload::ALL {
        for trace in [false, true] {
            match run_workload(w, DEFAULT_SEED, 0.0, trace, 1, out_dir) {
                Ok(r) => {
                    attempted += r.attempted;
                    if !r.correct {
                        errors.push(format!(
                            "{} (trace {trace}): gates failed: {:?}",
                            w.name(),
                            r.lines
                        ));
                    }
                    let schema: Vec<(&str, &str)> = if trace {
                        PER_LAYER.to_vec()
                    } else {
                        END_TO_END
                            .iter()
                            .copied()
                            .filter(|(n, _)| GATED.contains(n))
                            .collect()
                    };
                    if let Err(e) = check_schema(&r.metrics, &schema)
                        .and_then(|()| check_schema(&r.e2e, &END_TO_END))
                    {
                        errors.push(format!("{} (trace {trace}): {e}", w.name()));
                    }
                    if !trace {
                        if let Err(e) = smoke_gates(w, &r.first) {
                            errors.push(e);
                        }
                    }
                }
                Err(e) => errors.push(format!("{}: {e}", w.name())),
            }
        }
    }
    for e in &errors {
        println!("SMOKE FAILED: {e}");
    }
    println!(
        "{}",
        result_line(
            errors.is_empty(),
            attempted.max(1),
            errors.len() as u64,
            &[]
        )
    );
    ExitCode::from(u8::from(!errors.is_empty()))
}

/// Feeds each gate a violated copy of a real passing trial of `w` and
/// demands that it fires.
fn smoke_gates(w: Workload, t: &Trial) -> Result<(), String> {
    let name = w.name();
    let o = &t.outcome;
    check_outcome(o).map_err(|e| format!("{name}: real outcome failed: {e}"))?;
    workload::guard(w, &t.window).map_err(|e| format!("{name}: real window failed: {e}"))?;
    same_outcome(o, o).map_err(|e| format!("{name}: {e}"))?;
    let violated = [
        (
            "ops_failed",
            workload::Outcome {
                hiccups: o.hiccups + 1,
                ..o.clone()
            },
        ),
        (
            "parity.mismatches",
            workload::Outcome {
                parity_mismatches: 1,
                ..o.clone()
            },
        ),
        (
            "arrival conservation",
            workload::Outcome {
                arrivals: o.arrivals + 1,
                ..o.clone()
            },
        ),
        (
            "stream conservation",
            workload::Outcome {
                completed: o.completed + 1,
                ..o.clone()
            },
        ),
    ];
    for (what, bad) in &violated {
        if check_outcome(bad).is_ok() {
            return Err(format!("{name}: the {what} gate did not fire"));
        }
    }
    let drifted = workload::Outcome {
        digest: o.digest ^ 1,
        ..o.clone()
    };
    if same_outcome(o, &drifted).is_ok() {
        return Err(format!(
            "{name}: the traced-vs-untraced equality gate did not fire"
        ));
    }
    // An idle window does none of the work the workload is named for.
    let idle = workload::Window {
        rounds: 1,
        ..workload::Window::default()
    };
    if workload::guard(w, &idle).is_ok() {
        return Err(format!(
            "{name}: the shape guard did not fire on an idle window"
        ));
    }
    Ok(())
}
