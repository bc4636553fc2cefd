//! Shared layout types: physical locations, stream addresses, slot
//! contents and parity-group views.

use cms_core::DiskId;
use std::fmt;

/// A physical disk block: which disk, which block number on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockLocation {
    /// The disk.
    pub disk: DiskId,
    /// Block number on that disk (0-based).
    pub block_no: u64,
}

impl BlockLocation {
    /// Convenience constructor.
    #[must_use]
    pub fn new(disk: u32, block_no: u64) -> Self {
        BlockLocation { disk: DiskId(disk), block_no }
    }
}

impl fmt::Display for BlockLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.disk, self.block_no)
    }
}

/// Logical address of a data block: which stream (super-clip), which index
/// within it. Single-stream layouts use stream 0 for everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamAddr {
    /// Stream (super-clip) id; `0..r` for the dynamic scheme, `0`
    /// otherwise.
    pub stream: u32,
    /// Index of the data block within the stream.
    pub index: u64,
}

impl StreamAddr {
    /// Convenience constructor.
    #[must_use]
    pub fn new(stream: u32, index: u64) -> Self {
        StreamAddr { stream, index }
    }

    /// The next block of the same stream.
    #[must_use]
    pub fn next(self) -> Self {
        StreamAddr { stream: self.stream, index: self.index + 1 }
    }
}

impl fmt::Display for StreamAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}#{}", self.stream, self.index)
    }
}

/// Identifier of a parity group within a layout.
pub type GroupId = usize;

/// What a physical disk block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Unallocated.
    Free,
    /// A data block of some stream.
    Data(StreamAddr),
    /// The parity block of a group.
    Parity(GroupId),
}

/// A fully resolved parity group, borrowed from its layout's group
/// table: the stream addresses of its data blocks and the physical
/// locations of its redundancy blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityGroup<'a> {
    /// Data members, in stream order.
    pub data: &'a [StreamAddr],
    /// Where the (first) parity block lives.
    pub parity: BlockLocation,
    /// Redundancy blocks beyond the first — empty for the paper's
    /// single-parity groups (`m = 1`); a Reed–Solomon group with `m`
    /// redundancy shards lists its remaining `m − 1` here.
    pub extra: &'a [BlockLocation],
}

impl<'a> ParityGroup<'a> {
    /// Redundancy shard count `m` (1 for plain XOR parity).
    #[must_use]
    pub fn redundancy(&self) -> usize {
        1 + self.extra.len()
    }

    /// All redundancy block locations: the parity block, then the extras,
    /// in shard-index order (`k .. k + m`).
    pub fn redundancy_blocks(&self) -> impl Iterator<Item = BlockLocation> + 'a {
        std::iter::once(self.parity).chain(self.extra.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(BlockLocation::new(3, 7).to_string(), "disk3:7");
        assert_eq!(StreamAddr::new(2, 9).to_string(), "s2#9");
    }

    #[test]
    fn stream_addr_next_stays_in_stream() {
        let a = StreamAddr::new(1, 5);
        assert_eq!(a.next(), StreamAddr::new(1, 6));
    }

    #[test]
    fn slot_equality() {
        assert_eq!(Slot::Free, Slot::Free);
        assert_ne!(Slot::Data(StreamAddr::new(0, 0)), Slot::Parity(0));
    }
}
