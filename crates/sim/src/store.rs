//! Data-oriented storage for the engine core: a struct-of-arrays packet
//! store, an arena for per-packet routing-option lists, and dense
//! bitsets over buffers and channels.
//!
//! The hot phases of the routing cycle each touch a narrow slice of
//! per-packet state — the fill pass reads want masks and `moved_at`,
//! the link pass reads buffer occupancy, the read pass reads
//! `next_class` — so the packet slab keeps those fields in one packed
//! 32-byte [`Hot`] row and everything else in parallel cold columns
//! ([`PacketStore`]). Computed option lists live in one shared
//! [`OptionArena`] with exact-fit segment recycling, and buffer/channel
//! occupancy is mirrored in [`BitSet`]s so the link pass can test a
//! whole channel's "staged and far side empty" condition with two word
//! fetches.

/// One possible move of a queued packet: an output buffer (or
/// [`crate::layout::NONE`] for an internal stutter), the central-queue
/// class on arrival, and the routing state after the hop.
pub(crate) struct MoveOpt<M> {
    pub(crate) buf: u32,
    pub(crate) to_class: u8,
    pub(crate) next: M,
    /// Degraded-mode escape hop (see [`crate::fault`]): `next` is a
    /// placeholder; the receiving node restarts the routing state.
    pub(crate) escape: bool,
}

/// Per-packet state the fill, link and read phases touch every cycle,
/// packed into one 32-byte row so a queue scan costs one cache line per
/// packet. While the packet is queued, `opt_*`, `wants` and `stutters`
/// describe its current residence's moves; once staged, `next_class`
/// (and, for the table source, `state` and the option fields) describe
/// the post-hop residence.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct Hot {
    /// Fill positions the packet's moves target (bit `pos` for each
    /// option onto fill position `pos < 64`).
    pub(crate) wants: u64,
    /// Cycle of the packet's last move (enforces one move per cycle).
    pub(crate) moved_at: u64,
    /// Start of the packet's option segment in its option source.
    pub(crate) opt_start: u32,
    /// Routing-state id for the table source (`TERMINAL` = deliver on
    /// arrival); unused by the computed source.
    pub(crate) state: u32,
    /// Length of the option segment.
    pub(crate) opt_len: u8,
    /// Central-queue class of the current residence (valid while queued).
    pub(crate) class: u8,
    /// Central-queue class on arrival (valid while staged).
    pub(crate) next_class: u8,
    /// Set while the packet sits in an output buffer, pending removal
    /// from its queue after the fill pass.
    pub(crate) staged: bool,
    /// Internal (stutter) options of the current residence.
    pub(crate) stutters: u8,
    /// The packet's current hop is a degraded-mode escape move (see
    /// [`crate::fault`]).
    pub(crate) escape: bool,
    /// Link hops taken so far (reported with the delivery event).
    pub(crate) hops: u16,
}

/// Placeholder routing-state id of a packet that has no table state
/// yet, and the table's successor marker for "this hop delivers".
pub(crate) const TERMINAL: u32 = u32::MAX;

/// Struct-of-arrays slab of in-flight packets, indexed by recycled slot
/// id: the packed [`Hot`] row plus cold columns touched only at
/// injection, enqueue, delivery and checkpoint. [`PacketStore::insert`]
/// pops the free list or grows every column; uids are never recycled,
/// slots are.
pub(crate) struct PacketStore<M> {
    pub(crate) hot: Vec<Hot>,
    /// Run-unique id in injection order; this is the `pkt` handed to the
    /// [`fadr_metrics::Recorder`] hooks.
    pub(crate) uid: Vec<u64>,
    pub(crate) src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    pub(crate) inject_cycle: Vec<u64>,
    /// Cycle the packet entered its current central queue (checkpoint
    /// state only: FIFO order lives in the engine's per-node lists).
    pub(crate) enqueued_at: Vec<u64>,
    /// Routing message (the computed source's state; `()` for the
    /// table source). Updated to the post-hop message when staged.
    pub(crate) msg: Vec<M>,
    /// Recycled slot ids.
    pub(crate) free: Vec<u32>,
}

/// One packet's own state: what [`PacketStore::insert`] places (the
/// option segment starts empty, the packet unstaged), what
/// [`PacketStore::record`] gathers back, and what a snapshot packet
/// record and a cross-shard transfer carry.
#[derive(Debug, Clone)]
pub(crate) struct PacketInit<M> {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) uid: u64,
    pub(crate) hops: u16,
    pub(crate) inject_cycle: u64,
    pub(crate) enqueued_at: u64,
    pub(crate) moved_at: u64,
    pub(crate) class: u8,
    pub(crate) next_class: u8,
    pub(crate) escape: bool,
    pub(crate) msg: M,
}

impl<M> PacketStore<M> {
    pub(crate) fn new() -> Self {
        Self {
            hot: Vec::new(),
            uid: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            inject_cycle: Vec::new(),
            enqueued_at: Vec::new(),
            msg: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of slots (live + free).
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Place a packet, recycling a free slot if available.
    pub(crate) fn insert(&mut self, init: PacketInit<M>) -> u32 {
        let hot = Hot {
            wants: 0,
            moved_at: init.moved_at,
            opt_start: 0,
            state: TERMINAL,
            opt_len: 0,
            class: init.class,
            next_class: init.next_class,
            staged: false,
            stutters: 0,
            escape: init.escape,
            hops: init.hops,
        };
        if let Some(i) = self.free.pop() {
            let p = i as usize;
            self.hot[p] = hot;
            self.uid[p] = init.uid;
            self.src[p] = init.src;
            self.dst[p] = init.dst;
            self.inject_cycle[p] = init.inject_cycle;
            self.enqueued_at[p] = init.enqueued_at;
            self.msg[p] = init.msg;
            i
        } else {
            self.hot.push(hot);
            self.uid.push(init.uid);
            self.src.push(init.src);
            self.dst.push(init.dst);
            self.inject_cycle.push(init.inject_cycle);
            self.enqueued_at.push(init.enqueued_at);
            self.msg.push(init.msg);
            (self.hot.len() - 1) as u32
        }
    }

    /// The record of the packet in slot `p`.
    pub(crate) fn record(&self, p: u32) -> PacketInit<M>
    where
        M: Clone,
    {
        let (h, p) = (&self.hot[p as usize], p as usize);
        PacketInit {
            src: self.src[p],
            dst: self.dst[p],
            uid: self.uid[p],
            hops: h.hops,
            inject_cycle: self.inject_cycle[p],
            enqueued_at: self.enqueued_at[p],
            moved_at: h.moved_at,
            class: h.class,
            next_class: h.next_class,
            escape: h.escape,
            msg: self.msg[p].clone(),
        }
    }

    /// Push slot `p` onto the free list (its option segment must already
    /// be returned to its source).
    pub(crate) fn release(&mut self, p: u32) {
        self.free.push(p);
    }

    pub(crate) fn clear(&mut self) {
        self.hot.clear();
        self.uid.clear();
        self.src.clear();
        self.dst.clear();
        self.inject_cycle.clear();
        self.enqueued_at.clear();
        self.msg.clear();
        self.free.clear();
    }
}

/// Shared struct-of-arrays storage for every packet's cached option
/// list. Segments are allocated contiguously and recycled through
/// exact-length free lists: a packet that recomputes an option set of
/// the same size gets its old segment back, so steady-state simulation
/// performs no allocator traffic at all (the old design re-grew a
/// per-slot `Vec` instead).
pub(crate) struct OptionArena<M> {
    pub(crate) buf: Vec<u32>,
    pub(crate) to_class: Vec<u8>,
    pub(crate) escape: Vec<bool>,
    pub(crate) next: Vec<M>,
    /// `free[len]` holds start offsets of recycled segments of exactly
    /// `len` entries. Option-set sizes are bounded by the routing
    /// function's fan-out (a handful), so the outer Vec stays tiny.
    free: Vec<Vec<u32>>,
}

impl<M> OptionArena<M> {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::new(),
            to_class: Vec::new(),
            escape: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Move `opts` into a segment (recycled exact-fit or freshly grown)
    /// and return `(start, len)`. `opts` is drained, keeping its
    /// capacity for reuse as scratch.
    pub(crate) fn store(&mut self, opts: &mut Vec<MoveOpt<M>>) -> (u32, u32) {
        let len = opts.len();
        if len == 0 {
            return (0, 0);
        }
        if let Some(start) = self.free.get_mut(len).and_then(Vec::pop) {
            let s = start as usize;
            for (i, opt) in opts.drain(..).enumerate() {
                self.buf[s + i] = opt.buf;
                self.to_class[s + i] = opt.to_class;
                self.escape[s + i] = opt.escape;
                self.next[s + i] = opt.next;
            }
            (start, len as u32)
        } else {
            let start = self.buf.len() as u32;
            for opt in opts.drain(..) {
                self.buf.push(opt.buf);
                self.to_class.push(opt.to_class);
                self.escape.push(opt.escape);
                self.next.push(opt.next);
            }
            (start, len as u32)
        }
    }

    /// Return a segment to the free lists (no-op for `len == 0`). The
    /// segment's contents stay resident until overwritten by a reuse.
    pub(crate) fn release(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let l = len as usize;
        if self.free.len() <= l {
            self.free.resize_with(l + 1, Vec::new);
        }
        self.free[l].push(start);
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.to_class.clear();
        self.escape.clear();
        self.next.clear();
        for f in &mut self.free {
            f.clear();
        }
    }
}

/// Fixed-capacity dense bitset. The engine keeps three: output-buffer
/// occupancy, input-buffer occupancy, and channels-with-staged-traffic;
/// [`BitSet::extract`] is the link pass's two-word channel probe.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    #[cfg(test)]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The `len <= 64` bits starting at bit `start`, as the low bits of
    /// the returned word (at most two word fetches).
    #[inline]
    pub(crate) fn extract(&self, start: usize, len: usize) -> u64 {
        debug_assert!(len <= 64);
        let w = start / 64;
        let off = start % 64;
        let mut v = self.words[w] >> off;
        if off != 0 && w + 1 < self.words.len() {
            v |= self.words[w + 1] << (64 - off);
        }
        if len == 64 {
            v
        } else {
            v & ((1u64 << len) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_clear_get() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        b.clear(64);
        assert!(!b.get(64));
        b.clear_all();
        assert!(!b.get(0) && !b.get(129));
    }

    #[test]
    fn bitset_extract_spans_word_boundaries() {
        let mut b = BitSet::new(200);
        for i in [60usize, 61, 64, 70, 127, 128] {
            b.set(i);
        }
        // Bits 60..124: set positions 60,61,64,70 → offsets 0,1,4,10.
        assert_eq!(b.extract(60, 64), 1 | 2 | (1 << 4) | (1 << 10));
        // Bits 126..130: set positions 127,128 → offsets 1,2.
        assert_eq!(b.extract(126, 4), 0b110);
        // Aligned full word.
        assert_eq!(b.extract(64, 64), 1 | (1 << 6) | (1 << 63));
        // Zero-length probe.
        assert_eq!(b.extract(10, 0), 0);
    }

    #[test]
    fn arena_recycles_exact_fit_segments() {
        let mut a: OptionArena<u32> = OptionArena::new();
        let mut scratch = vec![
            MoveOpt {
                buf: 1,
                to_class: 0,
                next: 10,
                escape: false,
            },
            MoveOpt {
                buf: 2,
                to_class: 1,
                next: 20,
                escape: false,
            },
        ];
        let (s0, l0) = a.store(&mut scratch);
        assert_eq!((s0, l0), (0, 2));
        assert!(scratch.is_empty());
        a.release(s0, l0);
        // Same-size segment reuses the freed storage…
        scratch.push(MoveOpt {
            buf: 7,
            to_class: 0,
            next: 70,
            escape: true,
        });
        scratch.push(MoveOpt {
            buf: 8,
            to_class: 1,
            next: 80,
            escape: false,
        });
        let (s1, l1) = a.store(&mut scratch);
        assert_eq!((s1, l1), (0, 2));
        assert_eq!(&a.buf[0..2], &[7, 8]);
        assert_eq!(&a.next[0..2], &[70, 80]);
        assert!(a.escape[0]);
        // …while a different size grows fresh storage.
        scratch.push(MoveOpt {
            buf: 9,
            to_class: 0,
            next: 90,
            escape: false,
        });
        let (s2, l2) = a.store(&mut scratch);
        assert_eq!((s2, l2), (2, 1));
    }

    #[test]
    fn packet_store_recycles_slots() {
        let mut s: PacketStore<u8> = PacketStore::new();
        let init = |uid| PacketInit {
            src: 0,
            dst: 1,
            uid,
            hops: 0,
            inject_cycle: 0,
            enqueued_at: 0,
            moved_at: u64::MAX,
            class: 0,
            next_class: 0,
            escape: false,
            msg: 0u8,
        };
        let p0 = s.insert(init(0));
        let p1 = s.insert(init(1));
        assert_eq!((p0, p1), (0, 1));
        s.hot[0].opt_len = 3;
        s.hot[0].wants = 0b101;
        s.release(p0);
        // The freed slot is recycled with a fresh hot row.
        let p2 = s.insert(init(2));
        assert_eq!(p2, 0);
        assert_eq!(s.uid[0], 2);
        assert_eq!((s.hot[0].opt_len, s.hot[0].wants), (0, 0));
        assert_eq!(s.hot[0].state, TERMINAL);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hot_row_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Hot>(), 32);
    }
}
