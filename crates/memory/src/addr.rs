//! Global addresses.
//!
//! FaRM addresses objects with a flat 64-bit global address. We pack the
//! address as `region (16 bits) | slab (16 bits) | slot (32 bits)`: the
//! region identifies the replication unit (and therefore its primary and
//! backup machines), the slab identifies a fixed-size-class allocation area
//! within the region, and the slot identifies the object within the slab.
//! Old versions live in a separate, unreplicated address space addressed by
//! [`OldAddr`] (block + index), matching the paper's separation of head
//! versions (fixed location, RDMA-readable) from old-version blocks.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifier of a region — the unit of replication (Section 3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u16);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A global object address: `(region, slab, slot)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Addr {
    /// The region holding the object.
    pub region: RegionId,
    /// Slab index within the region.
    pub slab: u16,
    /// Slot index within the slab.
    pub slot: u32,
}

impl Addr {
    /// Packs the address into a single `u64` (as stored in FaRM pointers).
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.region.0 as u64) << 48) | ((self.slab as u64) << 32) | self.slot as u64
    }

    /// Unpacks an address from its `u64` representation.
    #[inline]
    pub fn unpack(raw: u64) -> Addr {
        Addr {
            region: RegionId((raw >> 48) as u16),
            slab: ((raw >> 32) & 0xFFFF) as u16,
            slot: (raw & 0xFFFF_FFFF) as u32,
        }
    }
}

impl Hash for Addr {
    /// One `write_u64` of the packed form, so an [`AddrHasher`] hashes an
    /// address with a single mix.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.pack());
    }
}

/// A fixed, seedless hasher for maps keyed by [`Addr`].
///
/// Addresses are generated by the engine's allocator, not chosen by a
/// client, so the hash-flooding defence of std's randomly seeded SipHash
/// buys nothing here; this is one splitmix64 finalizer per address (a
/// bijection on the packed form, so distinct addresses never collide in the
/// full 64-bit hash) and no per-map seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(32) ^ n;
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A `HashMap` keyed by [`Addr`] with the fixed [`AddrHasher`].
pub type AddrMap<V> = HashMap<Addr, V, BuildHasherDefault<AddrHasher>>;

/// A `HashSet` of [`Addr`]s with the fixed [`AddrHasher`].
pub type AddrSet = HashSet<Addr, BuildHasherDefault<AddrHasher>>;

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.region, self.slab, self.slot)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Identifier of an old-version block (1 MB in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Address of an old version: block + entry index within the block.
///
/// The `generation` field detects stale pointers into blocks that have been
/// garbage-collected and reused: following such a pointer must fail (and the
/// reading transaction aborts / falls back) rather than observe unrelated
/// data, which is the memory-safety property the paper gets from the GC safe
/// point.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct OldAddr {
    /// The block holding the old version.
    pub block: BlockId,
    /// Entry index within the block.
    pub index: u32,
    /// Generation of the block at allocation time.
    pub generation: u32,
}

impl fmt::Debug for OldAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}[{}]@g{}", self.block, self.index, self.generation)
    }
}

impl OldAddr {
    /// Packs the old-version address into a `u64` for storage in the header
    /// `OVP` field. Layout: `block (24) | generation (16) | index (24)`.
    /// Panics (in debug builds) if a component exceeds its field width; the
    /// configured block counts and sizes keep them in range.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(self.block.0 < (1 << 24));
        debug_assert!(self.index < (1 << 24));
        ((self.block.0 as u64) << 40)
            | (((self.generation & 0xFFFF) as u64) << 24)
            | self.index as u64
    }

    /// Unpacks an [`OldAddr`] from its `u64` representation.
    #[inline]
    pub fn unpack(raw: u64) -> OldAddr {
        OldAddr {
            block: BlockId((raw >> 40) as u32),
            generation: ((raw >> 24) & 0xFFFF) as u32,
            index: (raw & 0xFF_FFFF) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_pack_roundtrip() {
        let a = Addr {
            region: RegionId(513),
            slab: 7,
            slot: 123_456,
        };
        assert_eq!(Addr::unpack(a.pack()), a);
        let b = Addr {
            region: RegionId(0),
            slab: 0,
            slot: 0,
        };
        assert_eq!(Addr::unpack(b.pack()), b);
        let c = Addr {
            region: RegionId(u16::MAX),
            slab: u16::MAX,
            slot: u32::MAX,
        };
        assert_eq!(Addr::unpack(c.pack()), c);
    }

    #[test]
    fn old_addr_pack_roundtrip() {
        let a = OldAddr {
            block: BlockId(12),
            index: 9_999,
            generation: 3,
        };
        assert_eq!(OldAddr::unpack(a.pack()), a);
        let b = OldAddr {
            block: BlockId(0),
            index: 0,
            generation: 0,
        };
        assert_eq!(OldAddr::unpack(b.pack()), b);
    }

    #[test]
    fn generation_wraps_at_16_bits_in_packed_form() {
        let a = OldAddr {
            block: BlockId(1),
            index: 2,
            generation: 0x1_0005,
        };
        let unpacked = OldAddr::unpack(a.pack());
        assert_eq!(unpacked.generation, 0x0005);
    }

    #[test]
    fn addresses_format_compactly() {
        let a = Addr {
            region: RegionId(1),
            slab: 2,
            slot: 3,
        };
        assert_eq!(format!("{a}"), "r1:2:3");
        let o = OldAddr {
            block: BlockId(4),
            index: 5,
            generation: 6,
        };
        assert_eq!(format!("{o:?}"), "b4[5]@g6");
    }

    #[test]
    fn addr_hasher_spreads_addresses_that_differ_in_any_field() {
        use std::hash::BuildHasher;
        // The allocator hands out the same slab and slot indices in every
        // region, so the low (bucket-index) bits must depend on the region
        // too: 16 regions x 4 slabs x 64 slots into 1024 buckets.
        let build = BuildHasherDefault::<AddrHasher>::default();
        let mut buckets = HashSet::new();
        let mut map = AddrMap::default();
        for region in 0..16u16 {
            for slab in 0..4u16 {
                for slot in 0..64u32 {
                    let addr = Addr {
                        region: RegionId(region),
                        slab,
                        slot,
                    };
                    buckets.insert(build.hash_one(addr) & 1023);
                    map.insert(addr, addr.pack());
                }
            }
        }
        // 4096 uniform draws fill ~1005 of 1024 buckets.
        assert!(buckets.len() > 950, "only {} buckets used", buckets.len());
        assert_eq!(map.len(), 4096);
        assert!(map.iter().all(|(a, &p)| a.pack() == p));
    }
}
