//! The [`ErasureCodec`] trait: `k` data shards encode to `m` redundancy
//! shards; any `≤ m` erasures reconstruct from any `k` survivors.
//!
//! Two implementations:
//!
//! * [`XorCodec`] — the paper's single-parity XOR (`m = 1`), delegating
//!   to the original [`crate::codec`] kernels so its output is
//!   byte-identical to the pre-trait paths;
//! * [`RsCodec`] — a GF(256) Reed–Solomon code over a Cauchy encode
//!   matrix (every square submatrix of a Cauchy matrix is invertible, so
//!   the code is MDS by construction: any `k` of the `k + m` shards
//!   determine the rest). Decode solves the survivor system by Gaussian
//!   elimination over GF(256).
//!
//! Shard indices are `0..k` for data and `k..k + m` for redundancy,
//! matching the layout crate's group order (data members first, then the
//! group's parity locations).

use crate::block::Block;
use crate::codec;
use crate::gf256;
use std::borrow::Borrow;
use std::fmt;

/// Errors from erasure-codec operations. Every misuse — including more
/// erasures than the code tolerates — surfaces here; codec methods never
/// panic on adversarial shard sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// More shards are missing than the code can tolerate (fewer than `k`
    /// distinct survivors were supplied).
    TooManyErasures {
        /// Distinct survivors supplied.
        survivors: usize,
        /// Data shards `k` required to decode.
        needed: usize,
    },
    /// Supplied blocks have differing lengths.
    LengthMismatch {
        /// Length of the first block.
        expected: usize,
        /// The offending length.
        got: usize,
    },
    /// A shard index is out of `0..k + m`, duplicated, or the missing
    /// shard also appears among the survivors.
    BadShardIndex {
        /// The offending index.
        index: usize,
        /// Total shards `k + m`.
        shards: usize,
    },
    /// The shard-count geometry is invalid (`k = 0`, `m = 0`, or
    /// `k + m > 256`, the GF(256) limit), or an output slice has the
    /// wrong length.
    BadGeometry {
        /// Human-readable description.
        reason: &'static str,
    },
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::TooManyErasures { survivors, needed } => {
                write!(f, "unrecoverable: {survivors} survivors, {needed} needed")
            }
            ErasureError::LengthMismatch { expected, got } => {
                write!(f, "shard length mismatch: expected {expected}, got {got}")
            }
            ErasureError::BadShardIndex { index, shards } => {
                write!(f, "bad shard index {index} (group has {shards} shards)")
            }
            ErasureError::BadGeometry { reason } => write!(f, "bad codec geometry: {reason}"),
        }
    }
}

impl std::error::Error for ErasureError {}

impl From<codec::ParityError> for ErasureError {
    fn from(e: codec::ParityError) -> Self {
        match e {
            codec::ParityError::GroupTooSmall { got } => ErasureError::TooManyErasures {
                survivors: got,
                needed: got + 1,
            },
            codec::ParityError::LengthMismatch { expected, got } => {
                ErasureError::LengthMismatch { expected, got }
            }
        }
    }
}

/// An erasure code over `k` data and `m` redundancy shards.
///
/// Methods take `&mut self` so implementations can reuse internal decode
/// scratch (matrix, coefficient vectors) across calls — the hot variants
/// are allocation-free after first use.
pub trait ErasureCodec {
    /// Data shards `k`.
    fn data_shards(&self) -> usize;

    /// Redundancy shards `m` (the erasure tolerance).
    fn parity_shards(&self) -> usize;

    /// Encodes `k` data shards into `m` redundancy shards, writing into
    /// `parity` (which must hold exactly `m` blocks; their buffers are
    /// reused).
    ///
    /// # Errors
    ///
    /// [`ErasureError`] on shard-count or length mismatch.
    fn encode_into(&mut self, data: &[&Block], parity: &mut [Block]) -> Result<(), ErasureError>;

    /// Reconstructs the shard at index `missing` (`0..k + m`) from any
    /// `≥ k` surviving `(shard index, block)` pairs, writing into `out`
    /// (buffer reused).
    ///
    /// # Errors
    ///
    /// [`ErasureError::TooManyErasures`] when fewer than `k` distinct
    /// survivors are supplied; other variants on index/length misuse.
    /// Never panics.
    fn reconstruct_into(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError>;

    /// [`ErasureCodec::encode_into`] over one contiguous `k + m` shard
    /// slice (data first, then redundancy, buffers reused). Lets callers
    /// that pool all shards in a single `Vec<Block>` encode without
    /// building a `&[&Block]` table — fully allocation-free.
    ///
    /// # Errors
    ///
    /// [`ErasureError`] on slice-length or shard-length mismatch.
    fn encode_within(&mut self, shards: &mut [Block]) -> Result<(), ErasureError>;

    /// [`ErasureCodec::reconstruct_into`] over one contiguous `k + m`
    /// shard slice: rebuilds shard `missing` from the other entries (the
    /// content at `shards[missing]` is ignored). The allocation-free twin
    /// of the pair-based path for callers that pool all shards.
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::reconstruct_into`], plus
    /// [`ErasureError::BadGeometry`] on a slice-length mismatch.
    fn reconstruct_within(
        &mut self,
        shards: &[Block],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError>;

    /// Allocating convenience wrapper over [`ErasureCodec::encode_into`].
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::encode_into`].
    fn encode(&mut self, data: &[&Block]) -> Result<Vec<Block>, ErasureError> {
        let mut parity = vec![Block::default(); self.parity_shards()];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Allocating convenience wrapper over
    /// [`ErasureCodec::reconstruct_into`].
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::reconstruct_into`].
    fn reconstruct(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
    ) -> Result<Block, ErasureError> {
        let mut out = Block::default();
        self.reconstruct_into(present, missing, &mut out)?;
        Ok(out)
    }
}

/// The paper's XOR parity behind the trait: `m = 1`, parity is the XOR of
/// the `k` data shards, and any single erasure is the XOR of the `k`
/// survivors. Delegates to the original [`crate::codec`] kernels, so the
/// byte stream it produces is identical to the pre-trait implementation.
#[derive(Debug, Clone)]
pub struct XorCodec {
    k: usize,
}

impl XorCodec {
    /// A single-parity XOR code over `k ≥ 1` data shards.
    ///
    /// # Errors
    ///
    /// [`ErasureError::BadGeometry`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self, ErasureError> {
        if k == 0 {
            return Err(ErasureError::BadGeometry { reason: "k must be >= 1" });
        }
        Ok(XorCodec { k })
    }
}

impl ErasureCodec for XorCodec {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        1
    }

    fn encode_into(&mut self, data: &[&Block], parity: &mut [Block]) -> Result<(), ErasureError> {
        if data.len() != self.k {
            return Err(ErasureError::BadGeometry { reason: "data shard count != k" });
        }
        if parity.len() != 1 {
            return Err(ErasureError::BadGeometry { reason: "parity shard count != m" });
        }
        codec::parity_into(&mut parity[0], data.iter().copied())?;
        Ok(())
    }

    fn reconstruct_into(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        let shards = self.k + 1;
        if missing >= shards {
            return Err(ErasureError::BadShardIndex { index: missing, shards });
        }
        // All k survivors (data or parity — XOR doesn't care) must be
        // present, distinct, and not claim the missing slot.
        let mut seen = [false; 257];
        let mut distinct = 0usize;
        for &(idx, _) in present {
            if idx >= shards || idx == missing {
                return Err(ErasureError::BadShardIndex { index: idx, shards });
            }
            if !seen[idx] {
                seen[idx] = true;
                distinct += 1;
            }
        }
        if distinct < self.k {
            return Err(ErasureError::TooManyErasures { survivors: distinct, needed: self.k });
        }
        codec::reconstruct_into(out, present.iter().map(|&(_, b)| b))?;
        Ok(())
    }

    fn encode_within(&mut self, shards: &mut [Block]) -> Result<(), ErasureError> {
        if shards.len() != self.k + 1 {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        let (data, parity) = shards.split_at_mut(self.k);
        codec::parity_into(&mut parity[0], data.iter())?;
        Ok(())
    }

    fn reconstruct_within(
        &mut self,
        shards: &[Block],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        if shards.len() != self.k + 1 {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        if missing >= shards.len() {
            return Err(ErasureError::BadShardIndex { index: missing, shards: shards.len() });
        }
        let survivors = shards.iter().enumerate().filter(|&(i, _)| i != missing);
        codec::reconstruct_into(out, survivors.map(|(_, b)| b))?;
        Ok(())
    }
}

/// GF(256) Reed–Solomon over a Cauchy encode matrix: data shards are
/// indexed by field points `0..k`, redundancy shards by `k..k + m`, and
/// `cauchy[r][c] = (x_r + y_c)⁻¹` with `x_r = k + r`, `y_c = c`. Distinct
/// points keep every square submatrix invertible, so any `k` survivors
/// decode any shard.
#[derive(Debug, Clone)]
pub struct RsCodec {
    k: usize,
    m: usize,
    /// `m × k` encode matrix, row-major.
    cauchy: Vec<u8>,
    /// Decode scratch: `k × 2k` augmented matrix `[M | I]`.
    mat: Vec<u8>,
    /// Decode scratch: the `(position, shard index)` pairs of the
    /// survivors chosen for the solve, in enumeration order.
    sel: Vec<(usize, usize)>,
    /// Decode scratch: the coefficient of each chosen survivor in the
    /// reconstruction.
    coeff: Vec<u8>,
}

impl RsCodec {
    /// A Reed–Solomon code over `k ≥ 1` data and `m ≥ 1` redundancy
    /// shards with `k + m ≤ 256`.
    ///
    /// # Errors
    ///
    /// [`ErasureError::BadGeometry`] outside those bounds.
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
        if k == 0 || m == 0 {
            return Err(ErasureError::BadGeometry { reason: "k and m must be >= 1" });
        }
        if k + m > 256 {
            return Err(ErasureError::BadGeometry { reason: "k + m must be <= 256" });
        }
        // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
        let mut cauchy = vec![0u8; m * k];
        for r in 0..m {
            for c in 0..k {
                // x_r = k + r and y_c = c are distinct in GF(256) since
                // k + m ≤ 256, so the sum (XOR of distinct values) is
                // nonzero and invertible.
                cauchy[r * k + c] = gf256::inv((k + r) as u8 ^ c as u8);
            }
        }
        Ok(RsCodec {
            k,
            m,
            cauchy,
            // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
            mat: vec![0u8; k * 2 * k],
            sel: Vec::with_capacity(k),
            // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
            coeff: vec![0u8; k],
        })
    }

    /// Solves for the reconstruction coefficients of `missing` over the
    /// first `k` distinct survivor shard `indices`, leaving the chosen
    /// `(position, shard index)` order in `self.sel` and the per-survivor
    /// coefficients in `self.coeff`.
    fn solve_coefficients(
        &mut self,
        indices: impl Iterator<Item = usize>,
        missing: usize,
    ) -> Result<(), ErasureError> {
        let (k, shards) = (self.k, self.k + self.m);
        if missing >= shards {
            return Err(ErasureError::BadShardIndex { index: missing, shards });
        }
        self.sel.clear();
        let mut seen = [false; 257];
        for (pos, idx) in indices.enumerate() {
            if idx >= shards || idx == missing {
                return Err(ErasureError::BadShardIndex { index: idx, shards });
            }
            if !seen[idx] && self.sel.len() < k {
                seen[idx] = true;
                self.sel.push((pos, idx));
            }
        }
        if self.sel.len() < k {
            return Err(ErasureError::TooManyErasures { survivors: self.sel.len(), needed: k });
        }

        // Build the augmented system [M | I]: row j expresses survivor j
        // as a linear combination of the data shards.
        let width = 2 * k;
        self.mat.iter_mut().for_each(|x| *x = 0);
        for (j, &(_, idx)) in self.sel.iter().enumerate() {
            let row = &mut self.mat[j * width..(j + 1) * width];
            if idx < k {
                row[idx] = 1;
            } else {
                row[..k].copy_from_slice(&self.cauchy[(idx - k) * k..(idx - k + 1) * k]);
            }
            row[k + j] = 1;
        }

        // Gauss–Jordan over GF(256): reduce [M | I] to [I | M⁻¹].
        for col in 0..k {
            let Some(pivot) = (col..k).find(|&r| self.mat[r * width + col] != 0) else {
                // Unreachable for a Cauchy system with distinct indices,
                // but a typed error beats a panic on adversarial input.
                return Err(ErasureError::BadGeometry { reason: "singular survivor system" });
            };
            if pivot != col {
                for x in 0..width {
                    self.mat.swap(pivot * width + x, col * width + x);
                }
            }
            let inv_p = gf256::inv(self.mat[col * width + col]);
            for x in 0..width {
                self.mat[col * width + x] = gf256::mul(self.mat[col * width + x], inv_p);
            }
            for r in 0..k {
                if r == col {
                    continue;
                }
                let factor = self.mat[r * width + col];
                if factor == 0 {
                    continue;
                }
                for x in 0..width {
                    let v = gf256::mul(factor, self.mat[col * width + x]);
                    self.mat[r * width + x] ^= v;
                }
            }
        }

        // Coefficients of `missing` over the chosen survivors: row
        // `missing` of M⁻¹ for a data shard; for a redundancy shard,
        // its Cauchy row folded through M⁻¹.
        if missing < k {
            for j in 0..k {
                self.coeff[j] = self.mat[missing * width + k + j];
            }
        } else {
            let crow = &self.cauchy[(missing - k) * k..(missing - k + 1) * k];
            for j in 0..k {
                let mut acc = 0u8;
                for (c, &w) in crow.iter().enumerate() {
                    acc ^= gf256::mul(w, self.mat[c * width + k + j]);
                }
                self.coeff[j] = acc;
            }
        }
        Ok(())
    }

    /// Fills the `m` redundancy shards from `k` equal-length data shards
    /// (`&Block` or `Block` — the pair-based and pooled paths share it).
    fn encode_parity<B: Borrow<Block>>(
        &self,
        data: &[B],
        parity: &mut [Block],
    ) -> Result<(), ErasureError> {
        let shard = |c: usize| -> &Block { data[c].borrow() };
        let len = shard(0).len();
        if let Some(d) = (0..self.k).map(shard).find(|d| d.len() != len) {
            return Err(ErasureError::LengthMismatch { expected: len, got: d.len() });
        }
        for (r, p) in parity.iter_mut().enumerate() {
            p.fill_zero(len);
            for c in 0..self.k {
                // lint: hot
                gf256::mul_slice_xor(p.bytes_mut(), shard(c).bytes(), self.cauchy[r * self.k + c]);
            }
        }
        Ok(())
    }

    /// Writes into `out` the combination, by the coefficients
    /// [`Self::solve_coefficients`] left behind, of the chosen survivors;
    /// `survivor` maps a `(position, shard index)` pair to its block.
    fn combine<'a>(
        &self,
        survivor: impl Fn((usize, usize)) -> &'a Block,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        let len = survivor(self.sel[0]).len();
        if let Some(b) = self.sel.iter().map(|&s| survivor(s)).find(|b| b.len() != len) {
            return Err(ErasureError::LengthMismatch { expected: len, got: b.len() });
        }
        out.fill_zero(len);
        for (j, &s) in self.sel.iter().enumerate() {
            // lint: hot
            gf256::mul_slice_xor(out.bytes_mut(), survivor(s).bytes(), self.coeff[j]);
        }
        Ok(())
    }
}

impl ErasureCodec for RsCodec {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn encode_into(&mut self, data: &[&Block], parity: &mut [Block]) -> Result<(), ErasureError> {
        if data.len() != self.k {
            return Err(ErasureError::BadGeometry { reason: "data shard count != k" });
        }
        if parity.len() != self.m {
            return Err(ErasureError::BadGeometry { reason: "parity shard count != m" });
        }
        self.encode_parity(data, parity)
    }

    fn reconstruct_into(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        self.solve_coefficients(present.iter().map(|&(idx, _)| idx), missing)?;
        self.combine(|(pos, _)| present[pos].1, out)
    }

    fn encode_within(&mut self, shards: &mut [Block]) -> Result<(), ErasureError> {
        if shards.len() != self.k + self.m {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        let (data, parity) = shards.split_at_mut(self.k);
        self.encode_parity(data, parity)
    }

    fn reconstruct_within(
        &mut self,
        shards: &[Block],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        if shards.len() != self.k + self.m {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        self.solve_coefficients((0..shards.len()).filter(|&i| i != missing), missing)?;
        self.combine(|(_, idx)| &shards[idx], out)
    }
}

/// The codec a `(k, m)` group geometry calls for: the original XOR kernels
/// for `m = 1`, Reed–Solomon otherwise.
///
/// # Errors
///
/// [`ErasureError::BadGeometry`] for an unsupported `(k, m)`.
pub fn codec_for(k: usize, m: usize) -> Result<Box<dyn ErasureCodec + Send>, ErasureError> {
    if m == 1 {
        Ok(Box::new(XorCodec::new(k)?))
    } else {
        Ok(Box::new(RsCodec::new(k, m)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize) -> Vec<Block> {
        (0..k).map(|i| Block::synthetic(77, i as u64, len)).collect()
    }

    #[test]
    fn xor_codec_matches_legacy_parity() {
        for k in [1usize, 2, 3, 7] {
            let data = shards(k, 513);
            let refs: Vec<&Block> = data.iter().collect();
            let legacy = codec::parity_of(&refs).unwrap();
            let mut codec = XorCodec::new(k).unwrap();
            let encoded = codec.encode(&refs).unwrap();
            assert_eq!(encoded.len(), 1);
            assert_eq!(encoded[0], legacy, "k = {k}");
        }
    }

    #[test]
    fn rs_roundtrips_every_single_erasure() {
        for (k, m) in [(1usize, 1usize), (2, 2), (3, 2), (5, 3), (8, 1)] {
            let data = shards(k, 256);
            let refs: Vec<&Block> = data.iter().collect();
            let mut codec = RsCodec::new(k, m).unwrap();
            let parity = codec.encode(&refs).unwrap();
            let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
            for missing in 0..k + m {
                let present: Vec<(usize, &Block)> = all
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != missing)
                    .map(|(i, &b)| (i, b))
                    .collect();
                let got = codec.reconstruct(&present, missing).unwrap();
                assert_eq!(&got, all[missing], "(k={k}, m={m}) missing {missing}");
            }
        }
    }

    #[test]
    fn rs_m1_equals_xor() {
        // With one redundancy shard the Cauchy row is all-ones (inverse of
        // k ^ c ... not literally, but the code must still agree with XOR
        // parity on reconstruction of data shards from the other data
        // shards plus its own parity). This pins RS(k, 1) as a drop-in
        // functional replacement: erase a data shard, both codecs return
        // the same bytes.
        let k = 4;
        let data = shards(k, 128);
        let refs: Vec<&Block> = data.iter().collect();
        let mut rs = RsCodec::new(k, 1).unwrap();
        let rs_parity = rs.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(rs_parity.iter()).collect();
        for missing in 0..k {
            let present: Vec<(usize, &Block)> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != missing)
                .map(|(i, &b)| (i, b))
                .collect();
            let got = rs.reconstruct(&present, missing).unwrap();
            assert_eq!(&got, all[missing], "missing {missing}");
        }
    }

    #[test]
    fn too_many_erasures_is_a_typed_error() {
        let (k, m) = (4usize, 2usize);
        let data = shards(k, 64);
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let parity = codec.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
        // Erase m + 1 = 3 shards: only k − 1 survivors remain.
        let present: Vec<(usize, &Block)> =
            all.iter().enumerate().skip(3).map(|(i, &b)| (i, b)).collect();
        assert!(matches!(
            codec.reconstruct(&present, 0),
            Err(ErasureError::TooManyErasures { survivors: 3, needed: 4 })
        ));
    }

    #[test]
    fn bad_indices_are_typed_errors() {
        let mut codec = RsCodec::new(2, 2).unwrap();
        let b = Block::zeroed(16);
        // Out-of-range survivor index.
        assert!(matches!(
            codec.reconstruct(&[(9, &b), (1, &b)], 0),
            Err(ErasureError::BadShardIndex { index: 9, shards: 4 })
        ));
        // Survivor claiming the missing slot.
        assert!(matches!(
            codec.reconstruct(&[(0, &b), (1, &b)], 0),
            Err(ErasureError::BadShardIndex { index: 0, shards: 4 })
        ));
        // Out-of-range missing index.
        assert!(matches!(
            codec.reconstruct(&[(0, &b), (1, &b)], 7),
            Err(ErasureError::BadShardIndex { index: 7, shards: 4 })
        ));
    }

    #[test]
    fn geometry_limits() {
        assert!(RsCodec::new(0, 1).is_err());
        assert!(RsCodec::new(1, 0).is_err());
        assert!(RsCodec::new(200, 57).is_err());
        assert!(RsCodec::new(200, 56).is_ok());
        assert!(XorCodec::new(0).is_err());
        assert!(codec_for(3, 1).is_ok());
        assert!(codec_for(3, 3).is_ok());
        assert!(codec_for(0, 2).is_err());
    }

    #[test]
    fn within_variants_match_the_ref_based_paths() {
        for (k, m) in [(2usize, 2usize), (3, 2), (5, 3), (6, 1)] {
            let data = shards(k, 384);
            let refs: Vec<&Block> = data.iter().collect();
            let mut codec = RsCodec::new(k, m).unwrap();
            let parity = codec.encode(&refs).unwrap();
            // Contiguous encode agrees with the ref-based encode.
            let mut pool: Vec<Block> = data.iter().cloned().chain(parity.iter().cloned()).collect();
            pool[k..].iter_mut().for_each(|b| b.fill_zero(384));
            codec.encode_within(&mut pool).unwrap();
            assert_eq!(&pool[k..], &parity[..], "(k={k}, m={m}) encode");
            // Contiguous reconstruct rebuilds every shard, ignoring the
            // garbage left at the missing slot.
            for missing in 0..k + m {
                let mut scratched = pool.clone();
                scratched[missing].fill_synthetic(999, 999, 384);
                let mut out = Block::default();
                codec.reconstruct_within(&scratched, missing, &mut out).unwrap();
                assert_eq!(out, pool[missing], "(k={k}, m={m}) missing {missing}");
            }
            // Slice-length misuse is a typed error, not a panic.
            assert!(matches!(
                codec.reconstruct_within(&pool[..k], 0, &mut Block::default()),
                Err(ErasureError::BadGeometry { .. })
            ));
        }
    }

    #[test]
    fn encode_into_reuses_buffers() {
        let (k, m) = (3usize, 2usize);
        let data = shards(k, 512);
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let mut parity = vec![Block::zeroed(512); m];
        codec.encode_into(&refs, &mut parity).unwrap();
        let expect = codec.encode(&refs).unwrap();
        assert_eq!(parity, expect);
    }
}
