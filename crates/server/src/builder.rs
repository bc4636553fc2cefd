//! Fluent configuration for [`crate::CmServer`].

use cms_core::units::mbps;
use cms_core::{CmsError, DiskParams, Scheme};
use cms_model::{
    capacity_with_redundancy, tuned_optimal, tuned_point_with_redundancy, CapacityPoint,
    ModelInput,
};
use cms_sim::{SimConfig, TraceSpec};

/// Builder for a [`crate::CmServer`].
///
/// Only the scheme is mandatory; everything else defaults to the paper's
/// evaluation setup (32 Figure-1 disks, 256 MB buffer, 1000 × 50-block
/// MPEG-1 clips) and the parity group size is auto-tuned unless pinned
/// with [`CmServerBuilder::parity_group`].
#[derive(Debug, Clone)]
pub struct CmServerBuilder {
    scheme: Scheme,
    d: u32,
    buffer_bytes: u64,
    disk: DiskParams,
    clips: u64,
    clip_len: u64,
    p: Option<u32>,
    m: u32,
    seed: u64,
    verify_parity: bool,
    auto_rebuild: bool,
    threads: usize,
    trace: TraceSpec,
}

impl CmServerBuilder {
    /// Starts a builder for `scheme` with the paper's defaults.
    #[must_use]
    pub fn new(scheme: Scheme) -> Self {
        CmServerBuilder {
            scheme,
            d: 32,
            buffer_bytes: 256 << 20,
            disk: DiskParams::sigmod96(),
            clips: 1000,
            clip_len: 50,
            p: None,
            m: 1,
            seed: 0xCAFE,
            verify_parity: false,
            auto_rebuild: false,
            threads: 1,
            trace: TraceSpec::off(),
        }
    }

    /// Sets the number of disks.
    #[must_use]
    pub fn disks(mut self, d: u32) -> Self {
        self.d = d;
        self
    }

    /// Sets the RAM buffer size in bytes.
    #[must_use]
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Overrides the physical disk model.
    #[must_use]
    pub fn disk_model(mut self, disk: DiskParams) -> Self {
        self.disk = disk;
        self
    }

    /// Sets the clip library: `count` clips of `len_blocks` each.
    #[must_use]
    pub fn catalog(mut self, count: u64, len_blocks: u64) -> Self {
        self.clips = count;
        self.clip_len = len_blocks;
        self
    }

    /// Pins the parity group size instead of auto-tuning it.
    #[must_use]
    pub fn parity_group(mut self, p: u32) -> Self {
        self.p = Some(p);
        self
    }

    /// Sets the redundancy shard count `m` per parity group (default 1 =
    /// the paper's XOR parity). `m >= 2` switches the group codec to
    /// GF(256) Reed–Solomon and is supported by the clustered parity-disk
    /// schemes (pre-fetching with parity disks, streaming RAID), which
    /// then survive up to `m` concurrent disk failures per cluster.
    #[must_use]
    pub fn redundancy(mut self, m: u32) -> Self {
        self.m = m;
        self
    }

    /// Sets the seed for design construction and layout jitter.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Verifies every parity reconstruction byte-for-byte (slower;
    /// recommended in tests and drills).
    #[must_use]
    pub fn verify_reconstructions(mut self) -> Self {
        self.verify_parity = true;
        self
    }

    /// Sets the disk-service worker thread count (`1`, the default, =
    /// sequential; `0` = available parallelism). A wall-clock knob only:
    /// results are bit-identical at every setting.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Rebuilds a failed disk onto a hot spare in the background, using
    /// only slack bandwidth; the array returns to full redundancy when
    /// the rebuild finishes.
    #[must_use]
    pub fn auto_rebuild(mut self) -> Self {
        self.auto_rebuild = true;
        self
    }

    /// Enables event tracing (summary-only, JSONL or CSV — see
    /// [`TraceSpec`]). Traces follow the same determinism contract as
    /// the metrics: byte-identical at any thread count.
    #[must_use]
    pub fn trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Solves the capacity model and produces the tuned point plus the
    /// simulation config the server runs on.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InfeasibleConfig`] when no parity group size
    /// supports even one stream under the given hardware, and
    /// [`CmsError::InvalidParams`] for structurally invalid input.
    pub fn solve(&self) -> Result<(CapacityPoint, SimConfig), CmsError> {
        // Storage headroom ×1.5 covers start-jitter padding.
        let storage_blocks = self.clips.saturating_mul(self.clip_len).saturating_mul(3) / 2;
        let input = ModelInput {
            d: self.d,
            buffer_bytes: self.buffer_bytes,
            playback_rate: mbps(1.5),
            disk: self.disk,
            storage_blocks: Some(storage_blocks.max(1)),
            mid_round_failure: false,
        };
        let point = match (self.p, self.m) {
            (Some(p), m) => tuned_point_with_redundancy(self.scheme, &input, p, m, self.seed)?,
            (None, 1) => tuned_optimal(self.scheme, &input, self.seed)?,
            (None, m) => {
                // Sweep p at fixed m (the m >= 2 analogue of
                // `tuned_optimal`; no PGT schemes qualify, so no λ tuning).
                let mut best: Option<CapacityPoint> = None;
                for p in 2..=self.d {
                    let Ok(pt) = capacity_with_redundancy(self.scheme, &input, p, m) else {
                        continue;
                    };
                    if best.is_none_or(|b| pt.total_clips > b.total_clips) {
                        best = Some(pt);
                    }
                }
                best.ok_or_else(|| CmsError::InfeasibleConfig {
                    reason: format!(
                        "{}: no feasible p in 2..={} at m = {m}",
                        self.scheme, self.d
                    ),
                })?
            }
        };
        let cfg = SimConfig {
            scheme: self.scheme,
            d: self.d,
            p: point.p,
            m: point.m,
            q: point.q,
            f: point.f,
            block_bytes: point.block_bytes,
            catalog_clips: self.clips,
            clip_len: self.clip_len,
            clip_len_spread: 0,
            arrival_rate: 0.0, // externally driven
            zipf_theta: 0.0,
            rounds: u64::MAX, // unused: the server ticks manually
            failure: None,
            faults: None,
            degraded_admission: false,
            verify_parity: self.verify_parity,
            content_bytes: 512,
            seed: self.seed,
            admission_scan: 64,
            aging_limit: 200,
            auto_rebuild: self.auto_rebuild,
            threads: self.threads,
            trace: self.trace.clone(),
        };
        Ok((point, cfg))
    }

    /// Builds the server.
    ///
    /// # Errors
    ///
    /// As for [`CmServerBuilder::solve`].
    pub fn build(self) -> Result<crate::CmServer, CmsError> {
        crate::CmServer::from_builder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale() {
        let (point, cfg) = CmServerBuilder::new(Scheme::DeclusteredParity).solve().unwrap();
        assert_eq!(cfg.d, 32);
        assert_eq!(cfg.catalog_clips, 1000);
        assert!(point.total_clips > 100);
        assert_eq!(cfg.q, point.q);
        assert_eq!(cfg.block_bytes, point.block_bytes);
    }

    #[test]
    fn pinned_parity_group_is_respected() {
        let (point, _) = CmServerBuilder::new(Scheme::StreamingRaid)
            .parity_group(8)
            .solve()
            .unwrap();
        assert_eq!(point.p, 8);
    }

    #[test]
    fn auto_tuning_beats_or_matches_any_pin() {
        let auto = CmServerBuilder::new(Scheme::PrefetchParityDisks).solve().unwrap().0;
        for p in [2u32, 4, 8, 16, 32] {
            if let Ok((pinned, _)) =
                CmServerBuilder::new(Scheme::PrefetchParityDisks).parity_group(p).solve()
            {
                assert!(auto.total_clips >= pinned.total_clips, "p = {p}");
            }
        }
    }

    #[test]
    fn infeasible_hardware_errors() {
        let tiny = CmServerBuilder::new(Scheme::DeclusteredParity)
            .disks(4)
            .buffer_bytes(1024)
            .solve();
        assert!(tiny.is_err());
    }
}
