//! # cms-sim — the round-driven CM-server simulator
//!
//! Executes the full server of the paper, one round at a time:
//!
//! 1. client requests arrive (Poisson) and queue in the FIFO pending
//!    list;
//! 2. the head of the queue is offered to the scheme's admission
//!    controller until it rejects;
//! 3. every active client schedules its next block fetch(es) according to
//!    the scheme's retrieval policy (double-buffered single blocks for
//!    the declustered family and the non-clustered baseline;
//!    staggered whole-group fetches for the pre-fetching schemes;
//!    lock-step long-round group fetches for streaming RAID);
//! 4. a failed disk's fetches are replaced by the scheme's recovery
//!    reads (whole parity group for declustered, the parity block alone
//!    for the pre-fetching schemes, nothing extra for streaming RAID,
//!    a scramble of re-reads for the non-clustered baseline);
//! 5. each disk serves its queue earliest-deadline-first within the
//!    per-round budget `q`, with service time accounted by `cms-disk`;
//! 6. clients consume one block per round; a block that is not in the
//!    buffer when its round comes is a **hiccup** — the paper's
//!    guarantee is that schemes 1–5 never hiccup through a single disk
//!    failure, and the simulator's whole purpose is to check exactly
//!    that, byte-for-byte: reconstructed blocks are verified against the
//!    synthetic ground truth through the group's erasure codec
//!    (`codec_for`: XOR parity for `m = 1`, Reed–Solomon for `m ≥ 2`).
//!
//! The simulator is deterministic under a fixed seed, which makes the
//! Figure 6 reproduction and the failure-drill tests exact.
//!
//! ```
//! use cms_core::{DiskId, Scheme};
//! use cms_model::{tuned_point, ModelInput};
//! use cms_sim::{SimConfig, Simulator};
//!
//! let input = ModelInput::sigmod96(64 << 20).with_storage_blocks(2_000);
//! let mut inp = input;
//! inp.d = 8;
//! let point = tuned_point(Scheme::DeclusteredParity, &inp, 4, 1).unwrap();
//! let mut cfg = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, 8);
//! cfg.catalog_clips = 30;
//! cfg.clip_len = 20;
//! cfg.arrival_rate = 2.0;
//! cfg.rounds = 100;
//! let cfg = cfg.with_failure(40, DiskId(1)).with_verification();
//!
//! let metrics = Simulator::new(cfg).unwrap().run();
//! assert_eq!(metrics.hiccups, 0);          // rate guarantees held
//! assert_eq!(metrics.parity_mismatches, 0); // rebuilt bytes identical
//! ```

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod engine;
#[cfg(feature = "bench-alloc")]
pub mod hotgauge;
pub mod metrics;
pub mod oneshot;
mod table;

pub use config::{FailureScenario, SimConfig};
pub use engine::{SessionExport, Simulator};
pub use metrics::{Metrics, RoundReport};
pub use oneshot::{run_case, CaseRun};
// Re-exported so simulator users can script multi-event fault
// campaigns without depending on cms-fault directly.
pub use cms_fault::{FaultEvent, FaultSchedule, ScheduledEvent};
// Re-exported so simulator users can configure and consume tracing
// without depending on cms-trace directly.
pub use cms_trace::{
    EventKind, Histogram, TraceEvent, TraceOutput, TraceSink, TraceSpec, TraceSummary,
};
