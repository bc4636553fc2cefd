//! The clip catalog: lengths and placements.

use cms_core::{ClipId, CmsError};

/// Where a clip lives in the striped store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClipPlacement {
    /// The clip.
    pub id: ClipId,
    /// Stream (super-clip) the clip was concatenated into.
    pub stream: u32,
    /// Stream index of the clip's first block.
    pub start_index: u64,
    /// Length in blocks.
    pub len: u64,
}

impl ClipPlacement {
    /// Stream index one past the clip's last block.
    #[must_use]
    pub fn end_index(&self) -> u64 {
        self.start_index + self.len
    }
}

/// A catalog of clips packed into one or more streams.
#[derive(Debug, Clone)]
pub struct Catalog {
    clips: Vec<ClipPlacement>,
    stream_lens: Vec<u64>,
}

impl Catalog {
    /// Packs `count` clips of `len_blocks` each into `streams` streams,
    /// round-robin, with every clip start aligned up to a multiple of
    /// `alignment` (pass 1 for none; prefetch schemes pass `p − 1` so
    /// clips start on parity-group boundaries — §6.1's "first data block
    /// of each CM clip is stored on the first data disk within a
    /// cluster").
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for zero counts, lengths,
    /// streams or alignment.
    pub fn uniform(
        count: u64,
        len_blocks: u64,
        streams: u32,
        alignment: u64,
    ) -> Result<Self, CmsError> {
        Self::uniform_jittered(count, len_blocks, streams, alignment, 1, 0)
    }

    /// Like [`Catalog::uniform`], but inserts a seeded random pad of
    /// `0..jitter_units` alignment units before each clip. The paper's
    /// simulation chooses `disk(C)` and `row(C)` randomly per clip; dense
    /// concatenation of equal-length clips would instead make start disks
    /// cycle through a small residue class (e.g. only even disks for
    /// 50-block clips on 32 disks), skewing admission classes. Jitter of
    /// `d` units reproduces the paper's randomization. (The pad models
    /// the advertisement padding the paper appends to clips.)
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for zero counts, lengths,
    /// streams, alignment or jitter.
    pub fn uniform_jittered(
        count: u64,
        len_blocks: u64,
        streams: u32,
        alignment: u64,
        jitter_units: u64,
        seed: u64,
    ) -> Result<Self, CmsError> {
        Self::mixed(count, len_blocks, 0, streams, alignment, jitter_units, seed)
    }

    /// Like [`Catalog::uniform_jittered`], but with heterogeneous clip
    /// lengths: clip `i` is `base_len + h_i` blocks long for a seeded
    /// `h_i ∈ 0..=spread` (a real library mixes shorts, episodes and
    /// features; `spread = 0` reproduces the paper's uniform 50-block
    /// clips).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for zero counts, base lengths,
    /// streams, alignment or jitter, and for clips that overflow 64-bit
    /// stream indices.
    pub fn mixed(
        count: u64,
        base_len: u64,
        spread: u64,
        streams: u32,
        alignment: u64,
        jitter_units: u64,
        seed: u64,
    ) -> Result<Self, CmsError> {
        if count == 0 || base_len == 0 || streams == 0 || alignment == 0 || jitter_units == 0 {
            return Err(CmsError::invalid_params(
                "count, length, streams, alignment and jitter must all be >= 1",
            ));
        }
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let overflow = || CmsError::invalid_params("catalog overflows 64-bit stream indices");
        let mut clips = Vec::with_capacity(count as usize);
        let mut cursors = vec![0u64; streams as usize];
        for i in 0..count {
            let stream = (i % u64::from(streams)) as u32;
            let cursor = &mut cursors[stream as usize];
            let pad = (next() % jitter_units).checked_mul(alignment).ok_or_else(overflow)?;
            let extra = if spread == 0 { 0 } else { next() % spread.saturating_add(1) };
            let len = base_len.checked_add(extra).ok_or_else(overflow)?;
            let start = cursor
                .checked_add(pad)
                .and_then(|at| at.div_ceil(alignment).checked_mul(alignment))
                .ok_or_else(overflow)?;
            clips.push(ClipPlacement {
                id: ClipId(i),
                stream,
                start_index: start,
                len,
            });
            *cursor = start.checked_add(len).ok_or_else(overflow)?;
        }
        Ok(Catalog { clips, stream_lens: cursors })
    }

    /// Number of clips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// Is the catalog empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Placement of a clip.
    ///
    /// # Panics
    ///
    /// Panics if the clip id is out of range.
    #[must_use]
    pub fn placement(&self, id: ClipId) -> ClipPlacement {
        self.clips[id.idx()]
    }

    /// All placements.
    #[must_use]
    pub fn placements(&self) -> &[ClipPlacement] {
        &self.clips
    }

    /// Blocks needed in `stream` to hold every clip assigned to it.
    #[must_use]
    pub fn stream_len(&self, stream: u32) -> u64 {
        self.stream_lens[stream as usize]
    }

    /// The longest stream — what the layout builders must allocate.
    #[must_use]
    pub fn max_stream_len(&self) -> u64 {
        self.stream_lens.iter().copied().max().unwrap_or(0)
    }

    /// Total storage in blocks across streams (including alignment
    /// padding — the paper pads clips with advertisements to the block
    /// multiple; we pad starts to group boundaries).
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.stream_lens.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_shape() {
        // 1000 clips × 50 blocks, single stream, no alignment.
        let c = Catalog::uniform(1000, 50, 1, 1).unwrap();
        assert_eq!(c.len(), 1000);
        assert_eq!(c.total_blocks(), 50_000);
        let p = c.placement(ClipId(999));
        assert_eq!(p.start_index, 999 * 50);
        assert_eq!(p.end_index(), 50_000);
    }

    #[test]
    fn overflowing_lengths_are_rejected() {
        let invalid =
            |r: Result<Catalog, CmsError>| matches!(r, Err(CmsError::InvalidParams { .. }));
        assert!(invalid(Catalog::mixed(2, u64::MAX, 0, 1, 1, 1, 0)));
        assert!(invalid(Catalog::mixed(2, 10, u64::MAX, 1, 1, 1, 3)));
        assert!(invalid(Catalog::mixed(2, 10, 0, 1, u64::MAX, 2, 3)));
    }

    #[test]
    fn alignment_pads_starts() {
        // Clips of 50 blocks aligned to 3 (p = 4 prefetch): starts at
        // 0, 51, 102, ... (51 = ceil(50/3)*3).
        let c = Catalog::uniform(10, 50, 1, 3).unwrap();
        for clip in c.placements() {
            assert_eq!(clip.start_index % 3, 0, "{clip:?}");
        }
        assert_eq!(c.placement(ClipId(1)).start_index, 51);
        assert!(c.total_blocks() >= 500);
    }

    #[test]
    fn streams_are_packed_round_robin() {
        let c = Catalog::uniform(9, 10, 3, 1).unwrap();
        for (i, clip) in c.placements().iter().enumerate() {
            assert_eq!(clip.stream, (i % 3) as u32);
        }
        assert_eq!(c.stream_len(0), 30);
        assert_eq!(c.stream_len(1), 30);
        assert_eq!(c.stream_len(2), 30);
        assert_eq!(c.max_stream_len(), 30);
    }

    #[test]
    fn clips_never_overlap_within_a_stream() {
        let c = Catalog::uniform(100, 7, 4, 5).unwrap();
        for s in 0..4u32 {
            let mut spans: Vec<(u64, u64)> = c
                .placements()
                .iter()
                .filter(|p| p.stream == s)
                .map(|p| (p.start_index, p.end_index()))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap in stream {s}: {w:?}");
            }
        }
    }

    #[test]
    fn jitter_randomizes_start_disks() {
        let d = 32u64;
        let plain = Catalog::uniform(200, 50, 1, 1).unwrap();
        let jittered = Catalog::uniform_jittered(200, 50, 1, 1, d, 7).unwrap();
        let distinct = |c: &Catalog| {
            let set: std::collections::BTreeSet<u64> =
                c.placements().iter().map(|p| p.start_index % d).collect();
            set.len()
        };
        assert_eq!(distinct(&plain), 16, "dense packing hits only even disks");
        assert!(distinct(&jittered) > 24, "jitter must spread start disks");
        // Deterministic per seed.
        let again = Catalog::uniform_jittered(200, 50, 1, 1, d, 7).unwrap();
        assert_eq!(jittered.placements(), again.placements());
    }

    #[test]
    fn jittered_respects_alignment_and_no_overlap() {
        let c = Catalog::uniform_jittered(100, 50, 1, 3, 32, 9).unwrap();
        let mut prev_end = 0u64;
        for p in c.placements() {
            assert_eq!(p.start_index % 3, 0);
            assert!(p.start_index >= prev_end);
            prev_end = p.end_index();
        }
    }

    #[test]
    fn mixed_lengths_vary_within_range_without_overlap() {
        let c = Catalog::mixed(100, 20, 30, 1, 3, 8, 5).unwrap();
        let lens: std::collections::BTreeSet<u64> =
            c.placements().iter().map(|p| p.len).collect();
        assert!(lens.len() > 5, "lengths must actually vary: {lens:?}");
        assert!(lens.iter().all(|&l| (20..=50).contains(&l)));
        let mut prev_end = 0;
        for p in c.placements() {
            assert!(p.start_index >= prev_end, "no overlap");
            assert_eq!(p.start_index % 3, 0, "alignment kept");
            prev_end = p.end_index();
        }
        // Deterministic.
        assert_eq!(
            c.placements(),
            Catalog::mixed(100, 20, 30, 1, 3, 8, 5).unwrap().placements()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Catalog::uniform(0, 50, 1, 1).is_err());
        assert!(Catalog::uniform(10, 0, 1, 1).is_err());
        assert!(Catalog::uniform(10, 50, 0, 1).is_err());
        assert!(Catalog::uniform(10, 50, 1, 0).is_err());
    }
}
