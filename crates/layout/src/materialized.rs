//! [`MaterializedLayout`]: the fully resolved placement all builders
//! produce and everything downstream consumes.

use crate::types::{BlockLocation, GroupId, ParityGroup, Slot, StreamAddr};
use cms_bibd::Pgt;
use cms_core::{CmsError, DiskId, Scheme};

/// A complete, immutable placement of data and parity blocks on a disk
/// array.
#[derive(Debug, Clone)]
pub struct MaterializedLayout {
    scheme: Scheme,
    d: u32,
    p: u32,
    /// `streams[s][i]` = physical location of data block `i` of stream `s`.
    streams: Vec<Vec<BlockLocation>>,
    /// `slots[disk]` = contents of each disk block as packed slot words
    /// (dense prefix; blocks beyond the vector are `Free`).
    slots: Vec<Vec<u64>>,
    /// Parity groups.
    groups: GroupTable,
    /// `group_of[s][i]` = group of data block `i` of stream `s`.
    group_of: Vec<Vec<u32>>,
    /// The PGT, for the declustered family (None otherwise).
    pgt: Option<Pgt>,
}

/// The parity groups of a layout as three flat columns: every group's
/// data members back to back, their start offsets, and `m` redundancy
/// locations per group. Builders fill it in group-id order.
#[derive(Debug, Clone)]
pub(crate) struct GroupTable {
    /// Data members of all groups; each group's run is in stream order.
    pub(crate) members: Vec<StreamAddr>,
    /// `start[g] .. start[g + 1]` indexes group `g`'s run in `members`.
    pub(crate) start: Vec<u32>,
    /// Group `g`'s redundancy blocks are `redundancy[g·m .. (g + 1)·m]`,
    /// in shard-index order.
    pub(crate) redundancy: Vec<BlockLocation>,
    /// Redundancy shards per group (`m >= 1`).
    pub(crate) m: usize,
}

impl GroupTable {
    /// An empty table sized for `groups` groups holding `members` data
    /// blocks in total.
    pub(crate) fn with_capacity(m: usize, groups: usize, members: usize) -> Self {
        let mut start = Vec::with_capacity(groups + 1);
        start.push(0);
        GroupTable {
            members: Vec::with_capacity(members),
            start,
            redundancy: Vec::with_capacity(groups * m),
            m,
        }
    }

    /// Appends the next group.
    pub(crate) fn push(
        &mut self,
        data: impl IntoIterator<Item = StreamAddr>,
        redundancy: impl IntoIterator<Item = BlockLocation>,
    ) {
        self.members.extend(data);
        self.start.push(self.members.len() as u32);
        self.redundancy.extend(redundancy);
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn get(&self, gid: GroupId) -> ParityGroup<'_> {
        let data = &self.members[self.start[gid] as usize..self.start[gid + 1] as usize];
        let redundancy = &self.redundancy[gid * self.m..(gid + 1) * self.m];
        ParityGroup { data, parity: redundancy[0], extra: &redundancy[1..] }
    }
}

/// Most data blocks a layout can address: group ids, member offsets,
/// slot-word indices and the declustered builder's window keys are
/// 32-bit, and keys can reach about twice the block count.
const MAX_BLOCKS: u64 = 1 << 30;

/// Most streams a slot word can name (30 bits beside the 2-bit tag).
const MAX_STREAMS: u64 = 1 << 30;

/// Rejects layouts too large for the 32-bit group and slot encoding:
/// `streams` streams of `blocks_per_stream` data blocks each.
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] beyond [`MAX_STREAMS`] streams or
/// [`MAX_BLOCKS`] data blocks in total.
pub(crate) fn check_capacity(streams: u64, blocks_per_stream: u64) -> Result<(), CmsError> {
    let total = streams.saturating_mul(blocks_per_stream);
    if streams > MAX_STREAMS || total > MAX_BLOCKS {
        return Err(CmsError::invalid_params(format!(
            "layout of {streams} × {blocks_per_stream} blocks exceeds the addressable \
             {MAX_STREAMS} streams / {MAX_BLOCKS} blocks"
        )));
    }
    Ok(())
}

/// Slot word tags (top two bits); `0` is a free block. A data word
/// holds the stream in bits 32..62 and the index below; a parity word
/// holds the group id. [`check_capacity`] keeps both in range.
const TAG_DATA: u64 = 1 << 62;
const TAG_PARITY: u64 = 2 << 62;
const FREE: u64 = 0;

fn pack_data(addr: StreamAddr) -> u64 {
    TAG_DATA | (u64::from(addr.stream) << 32) | addr.index
}

fn unpack(word: u64) -> Slot {
    let low = word & 0xFFFF_FFFF;
    match word >> 62 {
        0 => Slot::Free,
        1 => Slot::Data(StreamAddr::new((word >> 32) as u32 & (MAX_STREAMS as u32 - 1), low)),
        _ => Slot::Parity(low as GroupId),
    }
}

impl MaterializedLayout {
    /// Assembles a layout from builder output — derives the slot table
    /// from the stream and redundancy locations — and validates its
    /// invariants. Intended for use by the builder modules; external
    /// callers use `declustered::build` etc.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] when an invariant is violated:
    /// two blocks share a slot, a stream address and slot table disagree,
    /// a group has members on duplicate disks, or a parity block collides
    /// with data.
    pub(crate) fn assemble(
        scheme: Scheme,
        d: u32,
        p: u32,
        streams: Vec<Vec<BlockLocation>>,
        groups: GroupTable,
        group_of: Vec<Vec<u32>>,
        pgt: Option<Pgt>,
    ) -> Result<Self, CmsError> {
        let slots = slot_table(d, &streams, &groups)?;
        let layout = MaterializedLayout { scheme, d, p, streams, slots, groups, group_of, pgt };
        layout.check_invariants()?;
        Ok(layout)
    }

    fn check_invariants(&self) -> Result<(), CmsError> {
        // Redundancy is a layout-wide constant: every group carries the
        // same shard count `m` (trailing groups may be short on data, but
        // never on redundancy).
        let groups = &self.groups;
        if groups.m == 0 || groups.redundancy.len() != groups.len() * groups.m {
            return Err(CmsError::invalid_params("groups disagree on redundancy m"));
        }
        if groups.start.windows(2).any(|w| w[0] > w[1])
            || groups.start.last().map(|&end| end as usize) != Some(groups.members.len())
        {
            return Err(CmsError::invalid_params("group member offsets out of order"));
        }
        if self.slots.len() != self.d as usize {
            return Err(CmsError::invalid_params("slot table width != d"));
        }
        if self.streams.len() != self.group_of.len() {
            return Err(CmsError::invalid_params("streams and group_of disagree"));
        }
        // Every stream block's slot must point back at it.
        for (s, stream) in self.streams.iter().enumerate() {
            for (i, loc) in stream.iter().enumerate() {
                let slot = self.slot(loc.disk, loc.block_no);
                let expect = Slot::Data(StreamAddr::new(s as u32, i as u64));
                if slot != expect {
                    return Err(CmsError::invalid_params(format!(
                        "slot {loc} holds {slot:?}, expected {expect:?}"
                    )));
                }
            }
            if self.group_of[s].len() != stream.len() {
                return Err(CmsError::invalid_params("group_of length mismatch"));
            }
        }
        // Groups: members on pairwise distinct disks, every redundancy
        // slot marked.
        let mut disks: Vec<DiskId> = Vec::new();
        for gid in 0..groups.len() {
            let g = groups.get(gid);
            disks.clear();
            disks.extend(g.data.iter().map(|&a| self.locate(a).disk));
            disks.extend(g.redundancy_blocks().map(|loc| loc.disk));
            disks.sort_unstable();
            if disks.windows(2).any(|w| w[0] == w[1]) {
                return Err(CmsError::invalid_params(format!(
                    "group {gid} has two members on one disk"
                )));
            }
            for loc in g.redundancy_blocks() {
                match self.slot(loc.disk, loc.block_no) {
                    Slot::Parity(owner) if owner == gid => {}
                    other => {
                        return Err(CmsError::invalid_params(format!(
                            "parity slot of group {gid} holds {other:?}"
                        )));
                    }
                }
            }
            for &a in g.data {
                if self.group_id_of(a) != gid {
                    return Err(CmsError::invalid_params(format!(
                        "group_of({a}) does not point at group {gid}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The scheme this layout implements.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of disks `d`.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.d
    }

    /// Parity group size `p`.
    #[must_use]
    pub fn parity_group_size(&self) -> u32 {
        self.p
    }

    /// Number of streams (`r` for the dynamic scheme, 1 otherwise).
    #[must_use]
    pub fn num_streams(&self) -> u32 {
        self.streams.len() as u32
    }

    /// Number of data blocks placed in `stream`.
    #[must_use]
    pub fn stream_len(&self, stream: u32) -> u64 {
        self.streams[stream as usize].len() as u64
    }

    /// Physical location of a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn locate(&self, addr: StreamAddr) -> BlockLocation {
        self.streams[addr.stream as usize][addr.index as usize]
    }

    /// Contents of a physical disk block (Free beyond the placed region).
    #[must_use]
    pub fn slot(&self, disk: DiskId, block_no: u64) -> Slot {
        self.slots[disk.idx()].get(block_no as usize).map_or(Slot::Free, |&w| unpack(w))
    }

    /// The parity group containing a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn group_id_of(&self, addr: StreamAddr) -> GroupId {
        self.group_of[addr.stream as usize][addr.index as usize] as GroupId
    }

    /// Group record by id.
    ///
    /// # Panics
    ///
    /// Panics if `gid >= num_groups()`.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> ParityGroup<'_> {
        self.groups.get(gid)
    }

    /// Number of parity groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Physical locations of the *other* members of `addr`'s parity group
    /// (data blocks first, then the redundancy blocks) — exactly the
    /// blocks a declustered-scheme server must fetch to reconstruct
    /// `addr` after its disk fails. With `m > 1` redundancy shards the
    /// list has more entries than a decode strictly needs (any `k`
    /// suffice); the caller filters to the survivors it can reach.
    #[must_use]
    pub fn reconstruction_reads(&self, addr: StreamAddr) -> Vec<BlockLocation> {
        let mut out = Vec::new();
        self.reconstruction_reads_into(addr, &mut out);
        out
    }

    /// Allocation-free [`Self::reconstruction_reads`]: clears and fills
    /// `out`, reusing its capacity (DESIGN.md §7).
    pub fn reconstruction_reads_into(&self, addr: StreamAddr, out: &mut Vec<BlockLocation>) {
        let g = self.group(self.group_id_of(addr));
        out.clear();
        out.extend(g.data.iter().filter(|&&a| a != addr).map(|&a| self.locate(a)));
        out.extend(g.redundancy_blocks());
    }

    /// Redundancy shards per group `m` (1 for every single-parity
    /// layout; the clustered family can be built with more).
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        // A layout without groups reports the paper's single parity.
        if self.num_groups() == 0 {
            1
        } else {
            self.groups.m as u32
        }
    }

    /// The PGT, for the declustered family.
    #[must_use]
    pub fn pgt(&self) -> Option<&Pgt> {
        self.pgt.as_ref()
    }

    /// For the declustered family: the PGT row a data block maps to
    /// (`block_no mod r`). `None` for layouts without a PGT.
    #[must_use]
    pub fn row_of(&self, addr: StreamAddr) -> Option<u32> {
        let pgt = self.pgt.as_ref()?;
        let loc = self.locate(addr);
        Some((loc.block_no % u64::from(pgt.rows())) as u32)
    }

    /// Disk holding the parity block of `addr`'s group — the disk a
    /// flat-placement server must charge a contingency read to.
    #[must_use]
    pub fn parity_disk_of(&self, addr: StreamAddr) -> DiskId {
        self.group(self.group_id_of(addr)).parity.disk
    }

    /// Highest used block number per disk (capacity accounting).
    #[must_use]
    pub fn blocks_used(&self, disk: DiskId) -> u64 {
        self.slots[disk.idx()].len() as u64
    }

    /// Total data blocks across all streams.
    #[must_use]
    pub fn total_data_blocks(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Storage overhead: parity blocks / data blocks.
    #[must_use]
    pub fn parity_overhead(&self) -> f64 {
        let data = self.total_data_blocks();
        if data == 0 {
            return 0.0;
        }
        self.groups.redundancy.len() as f64 / data as f64
    }
}

/// Derives the packed slot table from the data and redundancy locations:
/// one exactly sized column per disk.
fn slot_table(
    d: u32,
    streams: &[Vec<BlockLocation>],
    groups: &GroupTable,
) -> Result<Vec<Vec<u64>>, CmsError> {
    let out_of_range = |loc: &BlockLocation| {
        CmsError::invalid_params(format!("block {loc} lies outside the {d}-disk array"))
    };
    let mut used = vec![0usize; d as usize];
    for loc in streams.iter().flatten().chain(&groups.redundancy) {
        let n = used.get_mut(loc.disk.idx()).ok_or_else(|| out_of_range(loc))?;
        *n = (*n).max(loc.block_no as usize + 1);
    }
    let mut slots: Vec<Vec<u64>> = used.iter().map(|&n| vec![FREE; n]).collect();
    let mut put = |loc: &BlockLocation, word: u64| {
        let cell = &mut slots[loc.disk.idx()][loc.block_no as usize];
        if *cell != FREE {
            return Err(CmsError::invalid_params(format!(
                "slot {loc} allocated twice ({:?} and {:?})",
                unpack(*cell),
                unpack(word)
            )));
        }
        *cell = word;
        Ok(())
    };
    for (s, stream) in streams.iter().enumerate() {
        for (i, loc) in stream.iter().enumerate() {
            put(loc, pack_data(StreamAddr::new(s as u32, i as u64)))?;
        }
    }
    for (gid, shards) in groups.redundancy.chunks(groups.m.max(1)).enumerate() {
        for loc in shards {
            put(loc, TAG_PARITY | gid as u64)?;
        }
    }
    Ok(slots)
}
