//! Shared command-line parsing for the bench binaries.
//!
//! Every binary in `src/bin/` takes the same small flag set (`--json`,
//! `--rounds`, `--seed`, `--trace`, `--trace-rounds`); this module
//! parses it once so the binaries stop copy-pasting positional scans.
//! Parsing is infallible by design — a malformed value falls back to the
//! binary's default, matching the previous behaviour of the hand-rolled
//! scanners. There is no thread-count flag: the harness runs every
//! engine at one thread (DESIGN.md §5), and `--jobs` on the campaign
//! binaries is its only unit of parallelism.

use std::path::PathBuf;

use cms_sim::TraceSpec;

/// Parsed command-line arguments shared by all bench binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments (skipping `argv[0]`). A leftover
    /// `--threads` exits through [`fail`] rather than being silently
    /// ignored, since no binary can honour it.
    #[must_use]
    pub fn parse() -> Self {
        let args = Self::from_args(std::env::args().skip(1));
        if args.flag("--threads") {
            fail("cms-bench", "--threads is not accepted: engines run at one thread");
        }
        args
    }

    /// Parses an explicit argument list — the testable entry point.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        BenchArgs { args: args.into_iter().map(Into::into).collect() }
    }

    /// Is the bare flag `name` present?
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following the flag `name`, if any.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The value following `name`, parsed as `u64`.
    #[must_use]
    pub fn u64_value(&self, name: &str) -> Option<u64> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// `--json`: emit machine-readable output instead of tables.
    #[must_use]
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// `--rounds N`, defaulting to `default`.
    #[must_use]
    pub fn rounds_or(&self, default: u64) -> u64 {
        self.u64_value("--rounds").unwrap_or(default)
    }

    /// `--seed S`, defaulting to `default`.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.u64_value("--seed").unwrap_or(default)
    }

    /// `--trace PATH`: trace export destination, if requested.
    #[must_use]
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.value("--trace").map(PathBuf::from)
    }

    /// `--trace-rounds N`: keep only the last N rounds of events.
    #[must_use]
    pub fn trace_rounds(&self) -> Option<u64> {
        self.u64_value("--trace-rounds")
    }

    /// Builds the [`TraceSpec`] the flags describe: off without
    /// `--trace`, CSV when the path ends in `.csv`, JSONL otherwise,
    /// windowed by `--trace-rounds` when given. Harnesses running many
    /// simulations derive per-run file names via [`TraceSpec::labeled`].
    #[must_use]
    pub fn trace_spec(&self) -> TraceSpec {
        let Some(path) = self.trace_path() else {
            return TraceSpec::off();
        };
        let is_csv = path.extension().and_then(|e| e.to_str()) == Some("csv");
        let spec = if is_csv { TraceSpec::csv(path) } else { TraceSpec::jsonl(path) };
        match self.trace_rounds() {
            Some(n) => spec.with_last_rounds(n),
            None => spec,
        }
    }

    /// Writes `text` to `--out PATH`, or to stdout without `--out`. An
    /// unwritable path exits through [`fail`].
    pub fn emit(&self, bin: &str, text: &str, rows: usize) {
        match self.value("--out") {
            Some(path) => {
                if let Err(e) = std::fs::write(path, text) {
                    fail(bin, format_args!("cannot write {path}: {e}"));
                }
                eprintln!("{bin}: wrote {rows} rows to {path}");
            }
            None => print!("{text}"),
        }
    }

    /// For analytic-only binaries: warns on stderr when `--trace` was
    /// passed but the binary runs no simulation to trace.
    pub fn warn_if_trace_unused(&self, bin: &str) {
        if self.trace_path().is_some() {
            eprintln!("{bin}: --trace ignored (analytic-only binary, no simulation runs)");
        }
    }
}

/// Prints `{bin}: {msg}` on stderr and exits with status 2 — the bench
/// binaries' answer to bad outside input (an unknown scenario name, an
/// unwritable output path) instead of a panic.
pub fn fail(bin: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_sim::TraceOutput;

    #[test]
    fn flags_and_values_parse() {
        let a = BenchArgs::from_args(["--json", "--rounds", "90", "--seed", "7"]);
        assert!(a.json());
        assert_eq!(a.rounds_or(600), 90);
        assert_eq!(a.seed_or(1), 7);
        // Defaults apply when absent or malformed.
        let b = BenchArgs::from_args(["--rounds", "not-a-number"]);
        assert!(!b.json());
        assert_eq!(b.rounds_or(600), 600);
    }

    #[test]
    fn trace_spec_picks_format_by_extension() {
        let off = BenchArgs::from_args(["--json"]);
        assert!(off.trace_spec().is_off());

        let jsonl = BenchArgs::from_args(["--trace", "out/run.jsonl"]);
        assert_eq!(
            jsonl.trace_spec().output,
            TraceOutput::Jsonl(PathBuf::from("out/run.jsonl"))
        );

        let csv = BenchArgs::from_args(["--trace", "out/run.csv", "--trace-rounds", "32"]);
        let spec = csv.trace_spec();
        assert_eq!(spec.output, TraceOutput::Csv(PathBuf::from("out/run.csv")));
        assert_eq!(spec.last_rounds, Some(32));
    }

    #[test]
    fn unknown_extension_defaults_to_jsonl() {
        let a = BenchArgs::from_args(["--trace", "run.log"]);
        assert_eq!(a.trace_spec().output, TraceOutput::Jsonl(PathBuf::from("run.log")));
    }
}
