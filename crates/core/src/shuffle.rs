//! Shuffle-exchange routing (§ 5): two passes over the address bits, one
//! per phase, with Dally–Seitz breaking of the shuffle cycles.
//!
//! # The algorithm
//!
//! A message carries a **shuffle counter** `k`. After its `k`-th shuffle it
//! examines bit position `n-1-((k-1) mod n)` of the *logical word*
//! `W = ror^(k mod n)(u)` (its address un-rotated) against the destination:
//!
//! * a `0→1` mismatch **must** be fixed by the exchange link while it is
//!   examined in phase 1 (phase 2 only lowers levels);
//! * a `1→0` mismatch **must** be fixed in phase 2, and — with dynamic
//!   links enabled — **may** opportunistically be fixed in phase 1.
//!
//! A message is in phase 1 exactly while some `0→1` correction is pending;
//! shuffles never change `W`, so phases switch only on exchange hops.
//! Routes take at most `2n` shuffle plus `n` exchange hops (Theorem 3),
//! and messages are consumed as soon as they reach their destination node.
//!
//! # Queue classes and the composite-`n` correction
//!
//! Within a phase, deadlock over the shuffle cycles is broken at one node
//! per cycle ([`ShuffleExchange::is_cycle_break`]): a message's *cycle
//! class* starts at 0, increments when it shuffles out of the break node,
//! and resets on every exchange. The paper uses one class per phase pair
//! (4 queues, "break the shuffle cycles twice").
//!
//! Our model checker found that two classes per phase are only sufficient
//! when every shuffle cycle is as long as a phase residence: for
//! **composite** `n` there are short cycles (period-`L` necklaces, `L | n`)
//! that a message can wrap *several* times while waiting for its next
//! correction position, re-crossing the break node and closing a static
//! QDG cycle. We therefore provision `1 + max_{L | n, 2 <= L} (1 +
//! ⌊(n-1)/L⌋)` classes per phase — exactly 2 (the paper's 4 queues total)
//! when `n` is prime, and slightly more otherwise. See DESIGN.md.
//!
//! The degenerate one-node cycles (`0…0`, `1…1`) have self-loop shuffle
//! links; a "shuffle" there is modelled as an internal stutter that bumps
//! the counter without acquiring a new queue slot.

use fadr_qdg::sym::Symmetry;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::shuffle_exchange::{PORT_EXCHANGE, PORT_SHUFFLE};
use fadr_topology::{NodeId, Port, ShuffleExchange, Topology};

/// Message routing state for [`ShuffleExchangeRouting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeMsg {
    /// Destination node address.
    pub dst: NodeId,
    /// Shuffle hops taken so far (`0..=2n`).
    pub count: u16,
    /// Break crossings in the current cycle residence (the cycle class).
    pub cls: u8,
}

/// § 5's adaptive deadlock-free shuffle-exchange routing.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleExchangeRouting {
    se: ShuffleExchange,
    /// Queue classes per phase (2 for prime `n`; see module docs).
    classes_per_phase: u8,
    dynamic_links: bool,
}

impl ShuffleExchangeRouting {
    /// The paper's adaptive scheme (with dynamic links) on the
    /// `2^dims`-node shuffle-exchange.
    pub fn new(dims: usize) -> Self {
        Self::with_options(dims, true)
    }

    /// The underlying scheme without dynamic links (every `1→0` correction
    /// deferred to phase 2).
    pub fn without_dynamic_links(dims: usize) -> Self {
        Self::with_options(dims, false)
    }

    /// The paper's *literal* § 5 provisioning: exactly two cycle classes
    /// per phase ("break the shuffle cycles twice"), regardless of `dims`.
    ///
    /// Sound for prime `dims` (where it coincides with [`Self::new`]);
    /// for composite `dims` the short-necklace re-crossings overflow the
    /// two classes and the static QDG acquires a cycle — the certifier's
    /// canonical negative example (see DESIGN.md § 5).
    pub fn paper_literal(dims: usize) -> Self {
        Self {
            se: ShuffleExchange::new(dims),
            classes_per_phase: 2,
            dynamic_links: true,
        }
    }

    fn with_options(dims: usize, dynamic_links: bool) -> Self {
        let se = ShuffleExchange::new(dims);
        Self {
            se,
            classes_per_phase: classes_per_phase(dims),
            dynamic_links,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &ShuffleExchange {
        &self.se
    }

    /// Queue classes per phase (2 iff `dims` is prime).
    pub fn classes_per_phase(&self) -> u8 {
        self.classes_per_phase
    }

    /// Whether phase-1 `1→0` dynamic exchanges are enabled.
    pub fn dynamic_links_enabled(&self) -> bool {
        self.dynamic_links
    }

    /// The logical word of a message: its address rotated back by
    /// `count mod n`, aligning bit `i` with destination bit `i`.
    pub fn logical_word(&self, node: NodeId, count: u16) -> usize {
        let n = self.se.dims();
        let k = usize::from(count) % n;
        let mask = self.se.mask();
        if k == 0 {
            node
        } else {
            ((node >> k) | (node << (n - k))) & mask
        }
    }

    /// Positions still needing a `0→1` correction (phase-1 work).
    fn pending_zeros(&self, node: NodeId, count: u16, dst: NodeId) -> usize {
        let w = self.logical_word(node, count);
        (w ^ dst) & dst
    }

    /// Central-queue class for a message: phase base plus cycle class.
    fn class_of(&self, node: NodeId, msg: &SeMsg) -> u8 {
        let phase2 = self.pending_zeros(node, msg.count, msg.dst) == 0;
        u8::from(phase2) * self.classes_per_phase + msg.cls
    }

    /// Destination bit examined after the `count`-th shuffle.
    fn examined_bit(&self, count: u16) -> usize {
        let n = self.se.dims();
        n - 1 - ((usize::from(count) - 1) % n)
    }
}

/// Queue classes per phase needed to break every shuffle cycle, given the
/// longest possible cycle residence of `n` consecutive shuffles (see the
/// module docs): `1 + max(1, max_{L | n, 2 <= L < n} (1 + ⌊(n-1)/L⌋))`.
pub fn classes_per_phase(dims: usize) -> u8 {
    let mut max_crossings = 1usize; // full-length cycles: at most one.
    for len in 2..dims {
        if dims.is_multiple_of(len) {
            max_crossings = max_crossings.max(1 + (dims - 1) / len);
        }
    }
    u8::try_from(max_crossings + 1).expect("class count fits u8")
}

impl RoutingFunction for ShuffleExchangeRouting {
    type Msg = SeMsg;

    fn topology(&self) -> &dyn Topology {
        &self.se
    }

    fn num_classes(&self) -> usize {
        2 * usize::from(self.classes_per_phase)
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> SeMsg {
        SeMsg {
            dst,
            count: 0,
            cls: 0,
        }
    }

    fn destination(&self, msg: &SeMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &SeMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(&self, at: QueueId, msg: &SeMsg, f: &mut dyn FnMut(Transition<SeMsg>)) {
        let u = at.node;
        match at.kind {
            QueueKind::Inject => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::central(u, self.class_of(u, msg)),
                msg: *msg,
            }),
            QueueKind::Central(class) => {
                if u == msg.dst {
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Internal,
                        to: QueueId::deliver(u),
                        msg: *msg,
                    });
                    return;
                }
                debug_assert!(self.can_hold(u, class, msg), "shuffle budget exceeded");
                self.central_transitions(u, msg, f);
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        let cpp = self.classes_per_phase;
        match port {
            // Shuffle arrivals may land in any (phase, cycle-class) queue.
            PORT_SHUFFLE => (0..2 * cpp).map(BufferClass::Static).collect(),
            PORT_EXCHANGE => {
                if node & 1 == 0 {
                    // Upward exchange (0→1): phase-1 static traffic, which
                    // may complete phase 1 and land in a phase-2 queue.
                    vec![BufferClass::Static(0), BufferClass::Static(cpp)]
                } else {
                    // Downward exchange (1→0): phase-2 static, and the
                    // phase-1 dynamic links.
                    let mut v = vec![BufferClass::Static(cpp)];
                    if self.dynamic_links {
                        v.push(BufferClass::Dynamic);
                    }
                    v
                }
            }
            _ => Vec::new(),
        }
    }

    fn is_minimal(&self) -> bool {
        false
    }

    fn max_hops(&self) -> usize {
        3 * self.se.dims()
    }

    /// The counter invariant: Theorem 3's budget of `2n` shuffles, in a
    /// form each transition keeps. Phase 1 ends by the `n`-th shuffle and
    /// phase 2 by the `2n`-th, and a shuffle examines one position, so
    /// every correction the logical word still needs must lie at a
    /// position a remaining shuffle of its phase examines. Also a cycle
    /// class below `classes_per_phase`, and the class its phase names.
    fn can_hold(&self, node: NodeId, class: u8, msg: &SeMsg) -> bool {
        let n = self.se.dims();
        let w = self.logical_word(node, msg.count);
        let zeros = (w ^ msg.dst) & msg.dst;
        let (work, last) = if zeros != 0 {
            (zeros, n)
        } else {
            (w ^ msg.dst, 2 * n)
        };
        // Shuffles `count..=last` examine positions `0..=last - count`.
        let k = usize::from(msg.count);
        k <= last
            && work >> (last - k + 1).min(n) == 0
            && msg.cls < self.classes_per_phase
            && class == self.class_of(node, msg)
    }

    fn name(&self) -> String {
        format!(
            "shuffle-exchange-{}(n={})",
            if self.dynamic_links {
                "adaptive"
            } else {
                "static"
            },
            self.se.dims()
        )
    }
}

impl ShuffleExchangeRouting {
    fn central_transitions(&self, u: NodeId, msg: &SeMsg, f: &mut dyn FnMut(Transition<SeMsg>)) {
        let se = &self.se;

        // Examine the position settled by the last shuffle (none at count 0).
        let mut must_exchange_up = false; // 0→1, mandatory in phase 1
        let mut must_exchange_down = false; // 1→0, mandatory in phase 2
        let mut may_exchange_down = false; // 1→0, dynamic in phase 1
        if msg.count > 0 {
            let bit = self.examined_bit(msg.count);
            let want = (msg.dst >> bit) & 1;
            let have = u & 1;
            if have != want {
                let phase1 = self.pending_zeros(u, msg.count, msg.dst) != 0;
                if want == 1 {
                    debug_assert!(phase1, "0->1 mismatch implies pending zeros");
                    must_exchange_up = true;
                } else if phase1 {
                    may_exchange_down = self.dynamic_links;
                } else {
                    must_exchange_down = true;
                }
            }
        }

        // Shuffle hop: forbidden only while a mandatory exchange is due.
        if !must_exchange_up && !must_exchange_down {
            let v = se.shuffle(u);
            let next = SeMsg {
                dst: msg.dst,
                count: msg.count + 1,
                cls: if v == u {
                    msg.cls
                } else if se.is_cycle_break(u) {
                    // Saturate instead of overflowing: a no-op under the
                    // correct provisioning (`classes_per_phase` bounds the
                    // crossings per residence), but keeps the under-provisioned
                    // `paper_literal` variant well-defined so the certifier
                    // can exhibit its static QDG cycle.
                    (msg.cls + 1).min(self.classes_per_phase - 1)
                } else {
                    msg.cls
                },
            };
            if v == u {
                // Degenerate one-node cycle: stutter in place.
                f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Internal,
                    to: QueueId::central(u, self.class_of(u, &next)),
                    msg: next,
                });
            } else {
                f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Link(PORT_SHUFFLE),
                    to: QueueId::central(v, self.class_of(v, &next)),
                    msg: next,
                });
            }
        }

        if must_exchange_up || must_exchange_down || may_exchange_down {
            let v = se.exchange(u);
            let next = SeMsg {
                dst: msg.dst,
                count: msg.count,
                cls: 0,
            };
            f(Transition {
                kind: if may_exchange_down {
                    LinkKind::Dynamic
                } else {
                    LinkKind::Static
                },
                hop: HopKind::Link(PORT_EXCHANGE),
                to: QueueId::central(v, self.class_of(v, &next)),
                msg: next,
            });
        }
    }
}

impl Symmetry for ShuffleExchangeRouting {
    // Identity classifier (the trait defaults): no coarse class map is
    // sound here — an exchange resets `cls` while a break-crossing shuffle
    // raises it, so any (phase, cls)-level quotient acquires spurious
    // back-edges, and necklace rotations do not fix the break nodes.
    fn symmetry(&self) -> String {
        format!(
            "none exploited: exchange resets the cycle class while break crossings raise it, so \
             no necklace quotient is invariant; concrete queues, all {} destinations",
            self.se.num_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_qdg::verify;

    #[test]
    fn classes_per_phase_matches_cycle_structure() {
        assert_eq!(classes_per_phase(2), 2);
        assert_eq!(classes_per_phase(3), 2); // prime: the paper's 4 queues
        assert_eq!(classes_per_phase(4), 3); // 2-cycles can be wrapped twice
        assert_eq!(classes_per_phase(5), 2);
        assert_eq!(classes_per_phase(6), 4);
        assert_eq!(classes_per_phase(7), 2);
    }

    #[test]
    fn adaptive_passes_checks_n3() {
        let rf = ShuffleExchangeRouting::new(3);
        assert_eq!(rf.num_classes(), 4); // the paper's 4 queues
        let rep = verify::verify_all(&rf, false).unwrap();
        assert!(rep.dynamic_edges > 0);
    }

    #[test]
    fn adaptive_passes_checks_n4_with_extra_classes() {
        let rf = ShuffleExchangeRouting::new(4);
        assert_eq!(rf.num_classes(), 6);
        verify::verify_all(&rf, false).unwrap();
    }

    #[test]
    fn static_variant_passes_checks_n3() {
        let rf = ShuffleExchangeRouting::without_dynamic_links(3);
        let rep = verify::verify_all(&rf, false).unwrap();
        assert_eq!(rep.dynamic_edges, 0);
    }

    #[test]
    fn logical_word_unrotates() {
        let rf = ShuffleExchangeRouting::new(4);
        // After 1 shuffle, node rol(u) has logical word u.
        let u = 0b0110;
        let v = rf.network().shuffle(u);
        assert_eq!(rf.logical_word(v, 1), u);
        assert_eq!(rf.logical_word(u, 0), u);
        assert_eq!(rf.logical_word(u, 4), u);
    }

    #[test]
    fn routes_are_bounded_by_3n() {
        verify::verify_bounded_paths(&ShuffleExchangeRouting::new(3)).unwrap();
        verify::verify_bounded_paths(&ShuffleExchangeRouting::new(4)).unwrap();
    }

    #[test]
    fn not_fully_adaptive_is_expected() {
        // The SE scheme is adaptive but not fully adaptive (and not
        // minimal); the checker must reject full adaptivity.
        let err = verify::verify_fully_adaptive(&ShuffleExchangeRouting::new(3)).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn phase1_zero_to_one_exchange_is_mandatory() {
        let rf = ShuffleExchangeRouting::new(3);
        // u = 000 after 1 shuffle examining bit 2; dst bit 2 = 1 => the
        // only transition is the (static) exchange.
        let msg = SeMsg {
            dst: 0b100,
            count: 1,
            cls: 0,
        };
        let ts = rf.transitions(QueueId::central(0b000, 0), &msg);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].kind, LinkKind::Static);
        assert_eq!(ts[0].hop, HopKind::Link(PORT_EXCHANGE));
        assert_eq!(ts[0].to.node, 0b001);
    }

    #[test]
    fn phase1_one_to_zero_exchange_is_dynamic_and_optional() {
        let rf = ShuffleExchangeRouting::new(3);
        // u = 011, count 1 examines bit 2: have 1, want 0, and another
        // 0->1 correction is pending (dst = 010 vs logical word 101... pick
        // dst so pending zeros remain): logical word of 011 at count 1 is
        // ror(011) = 101. dst = 010: mismatches at bits 2 (1->0), 0 (1->0),
        // bit 1 (0->1 pending) => phase 1, LSB examined... examined bit is
        // 2, have u&1 = 1, want dst bit2 = 0 => dynamic exchange + shuffle.
        let msg = SeMsg {
            dst: 0b010,
            count: 1,
            cls: 0,
        };
        let ts = rf.transitions(QueueId::central(0b011, 0), &msg);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].kind, LinkKind::Static);
        assert_eq!(ts[0].hop, HopKind::Link(PORT_SHUFFLE));
        assert_eq!(ts[1].kind, LinkKind::Dynamic);
        assert_eq!(ts[1].hop, HopKind::Link(PORT_EXCHANGE));
    }

    #[test]
    fn stutter_on_degenerate_cycles() {
        let rf = ShuffleExchangeRouting::new(3);
        // Node 000 with no mandatory exchange shuffles "in place".
        let msg = SeMsg {
            dst: 0b001,
            count: 0,
            cls: 0,
        };
        let ts = rf.transitions(QueueId::central(0b000, 0), &msg);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].hop, HopKind::Internal);
        assert_eq!(ts[0].to.node, 0b000);
        assert_eq!(ts[0].msg.count, 1);
    }
}
