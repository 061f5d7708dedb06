//! The workspace's one Fx-style hasher, for every map on the
//! verification and table-build paths: the state walk's index
//! ([`crate::walk`]), [`crate::graph::Digraph`]'s edge set,
//! `fadr_sim::StateTable::build`'s interner, `fadr-verify`'s class
//! graph, certificate checker and fault wrapper, and `fadr-lint`'s
//! engine.
//!
//! The walk interns hundreds of millions of `(QueueId, Msg)` states on
//! large instances, and SipHash would dominate that profile. The keys
//! are short runs of machine words the program generates itself, so
//! they need no DoS resistance: a multiply-xor mix in the style of
//! rustc's `FxHasher` is the right trade.
//!
//! [`FxHasher::finish`] rotates the product. A product `word · K` has
//! low bits that depend only on the key's low bits, and hashbrown takes
//! its bucket index from the low bits, so keys that differ only in their
//! high bits (a state key `class << 56 | zeros << 28 | ones`, a pair
//! packed into one word) would pile into a few buckets. The rotation
//! brings the well-mixed high bits down, as rustc-hash 2's `finish` does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from rustc-hash: a random odd 64-bit constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-xor hasher (not DoS resistant; interning only).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The high bits of the product carry the mix; move them to the
        // low bits, where hashbrown picks the bucket (module docs).
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
