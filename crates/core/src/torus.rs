//! Two-phase adaptive minimal routing on the 2-D torus.
//!
//! The paper remarks (after Theorem 2) that fully-adaptive minimal packet
//! routing over tori "can be achieved using 4 queues per node … following
//! an idea similar to the one presented in \[GPS91\]", without giving the
//! construction. We implement a verified scheme of the same flavour that
//! needs **6** central queues; the gap is documented in DESIGN.md.
//!
//! # The scheme
//!
//! At injection a message fixes, per dimension, the minimal travel
//! direction (`+` or `-`; ties on even rings resolved to `+`). Its route
//! then interleaves those fixed directed moves arbitrarily:
//!
//! * **Phase A** — while some `+` move remains: `+` moves are *static*
//!   links (level `x + y` rises except at a wraparound), `-` moves are
//!   *dynamic* links (the pending `+` move is the static escape,
//!   condition 3 of § 2).
//! * **Phase B** — only `-` moves remain; they are static.
//!
//! Wraparound crossings are the only level-order violations, and each
//! dimension wraps at most once, so indexing the phase-A queues by the
//! number of `+`-wraps crossed (0, 1, 2) and the phase-B queues by the
//! number of `-`-wraps crossed restores a global order
//! `(A,0) < (A,1) < (A,2) < (B,0) < (B,1) < (B,2)` — six classes — under
//! which the static QDG is acyclic (machine-checked by `fadr-qdg`).
//!
//! The scheme is minimal; on odd×odd tori (where minimal directions are
//! unique) it is *fully* adaptive, while on even rings the half-way tie is
//! fixed at injection, excluding the opposite-direction minimal paths.

use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::{NodeId, Port, Topology, Torus2D};

/// Message routing state for [`TorusTwoPhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusMsg {
    /// Destination node id.
    pub dst: NodeId,
    /// Remaining hops in x.
    pub rx: u8,
    /// Remaining hops in y.
    pub ry: u8,
    /// Fixed x travel direction: -1, 0, or +1.
    pub dirx: i8,
    /// Fixed y travel direction: -1, 0, or +1.
    pub diry: i8,
    /// `+`-direction wraparound links crossed (0..=2).
    pub wplus: u8,
    /// `-`-direction wraparound links crossed (0..=2).
    pub wminus: u8,
}

impl TorusMsg {
    /// Whether some `+`-direction move remains (phase A).
    #[inline]
    pub fn in_phase_a(&self) -> bool {
        (self.dirx > 0 && self.rx > 0) || (self.diry > 0 && self.ry > 0)
    }

    /// The central-queue class this message occupies.
    #[inline]
    pub fn class(&self) -> u8 {
        if self.in_phase_a() {
            self.wplus
        } else {
            3 + self.wminus
        }
    }
}

/// Two-phase adaptive minimal torus routing with six central queues.
#[derive(Debug, Clone, Copy)]
pub struct TorusTwoPhase {
    torus: Torus2D,
}

impl TorusTwoPhase {
    /// Routing on a `width × height` torus.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            torus: Torus2D::new(width, height),
        }
    }

    /// The underlying torus.
    pub fn torus(&self) -> &Torus2D {
        &self.torus
    }
}

/// Torus ports, following [`Torus2D`]'s numbering.
const XP: Port = 0;
const XN: Port = 1;
const YP: Port = 2;
const YN: Port = 3;

impl RoutingFunction for TorusTwoPhase {
    type Msg = TorusMsg;

    fn topology(&self) -> &dyn Topology {
        &self.torus
    }

    fn num_classes(&self) -> usize {
        6
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> TorusMsg {
        let (dx, dy) = self.torus.offsets(src, dst);
        TorusMsg {
            dst,
            rx: u8::try_from(dx.unsigned_abs()).expect("torus side fits u8 travel"),
            ry: u8::try_from(dy.unsigned_abs()).expect("torus side fits u8 travel"),
            dirx: dx.signum() as i8,
            diry: dy.signum() as i8,
            wplus: 0,
            wminus: 0,
        }
    }

    fn destination(&self, msg: &TorusMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &TorusMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &TorusMsg,
        f: &mut dyn FnMut(Transition<TorusMsg>),
    ) {
        let t = &self.torus;
        let u = at.node;
        match at.kind {
            QueueKind::Inject => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::central(u, msg.class()),
                msg: *msg,
            }),
            QueueKind::Central(class) => {
                if u == msg.dst {
                    debug_assert_eq!((msg.rx, msg.ry), (0, 0));
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Internal,
                        to: QueueId::deliver(u),
                        msg: *msg,
                    });
                    return;
                }
                debug_assert!(
                    self.can_hold(u, class, msg),
                    "each dimension wraps at most once"
                );
                let (x, y) = t.coords(u);
                let phase_a = msg.in_phase_a();
                // Ports in ascending order: +x, -x, +y, -y.
                if msg.dirx > 0 && msg.rx > 0 {
                    let wrap = x == t.width() - 1;
                    let next = TorusMsg {
                        rx: msg.rx - 1,
                        wplus: msg.wplus + u8::from(wrap),
                        ..*msg
                    };
                    self.emit(f, LinkKind::Static, u, XP, next);
                }
                if msg.dirx < 0 && msg.rx > 0 {
                    let wrap = x == 0;
                    let next = TorusMsg {
                        rx: msg.rx - 1,
                        wminus: msg.wminus + u8::from(wrap),
                        ..*msg
                    };
                    let kind = if phase_a {
                        LinkKind::Dynamic
                    } else {
                        LinkKind::Static
                    };
                    self.emit(f, kind, u, XN, next);
                }
                if msg.diry > 0 && msg.ry > 0 {
                    let wrap = y == t.height() - 1;
                    let next = TorusMsg {
                        ry: msg.ry - 1,
                        wplus: msg.wplus + u8::from(wrap),
                        ..*msg
                    };
                    self.emit(f, LinkKind::Static, u, YP, next);
                }
                if msg.diry < 0 && msg.ry > 0 {
                    let wrap = y == 0;
                    let next = TorusMsg {
                        ry: msg.ry - 1,
                        wminus: msg.wminus + u8::from(wrap),
                        ..*msg
                    };
                    let kind = if phase_a {
                        LinkKind::Dynamic
                    } else {
                        LinkKind::Static
                    };
                    self.emit(f, kind, u, YN, next);
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, port: Port) -> Vec<BufferClass> {
        match port {
            // `+` channels: phase-A static traffic that can land in any
            // class (a final `+` move switches the message to phase B).
            XP | YP => (0..6).map(BufferClass::Static).collect(),
            // `-` channels: phase-B static traffic plus phase-A dynamics.
            _ => vec![
                BufferClass::Static(3),
                BufferClass::Static(4),
                BufferClass::Static(5),
                BufferClass::Dynamic,
            ],
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.torus.width() / 2 + self.torus.height() / 2
    }

    /// The wrap invariant: counting the wraps its remaining moves cross,
    /// the message wraps at most twice per direction sign, and it sits
    /// in its own class ([`TorusMsg::class`]).
    fn can_hold(&self, node: NodeId, class: u8, msg: &TorusMsg) -> bool {
        let t = &self.torus;
        let (x, y) = t.coords(node);
        // The (`+`, `-`) wraps crossed by `r` moves in direction `dir`
        // from `at` on a ring of `side` nodes.
        let wraps = |dir: i8, at: usize, r: u8, side: usize| match dir {
            1.. => ((at + usize::from(r)) / side, 0),
            ..=-1 => (0, (side - 1 - at + usize::from(r)) / side),
            0 => (0, 0),
        };
        let (px, mx) = wraps(msg.dirx, x, msg.rx, t.width());
        let (py, my) = wraps(msg.diry, y, msg.ry, t.height());
        usize::from(msg.wplus) + px + py <= 2
            && usize::from(msg.wminus) + mx + my <= 2
            && class == msg.class()
    }

    fn name(&self) -> String {
        format!(
            "torus-two-phase({}x{})",
            self.torus.width(),
            self.torus.height()
        )
    }
}

impl TorusTwoPhase {
    fn emit(
        &self,
        f: &mut dyn FnMut(Transition<TorusMsg>),
        kind: LinkKind,
        u: NodeId,
        port: Port,
        next: TorusMsg,
    ) {
        let v = self
            .torus
            .neighbor(u, port)
            .expect("torus ports always exist");
        f(Transition {
            kind,
            hop: HopKind::Link(port),
            to: QueueId::central(v, next.class()),
            msg: next,
        });
    }
}

impl Symmetry for TorusTwoPhase {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        match q.kind {
            QueueKind::Inject => QueueClass::inject(),
            QueueKind::Deliver => QueueClass::deliver(),
            QueueKind::Central(c) => {
                // Within a wrap-count class every static link either keeps
                // the class and raises the diagonal level, or moves to a
                // strictly later class (wrap crossing or phase switch).
                let (x, y) = self.torus.coords(q.node);
                let level = if c < 3 {
                    x + y
                } else {
                    (self.torus.width() - 1 - x) + (self.torus.height() - 1 - y)
                };
                QueueClass::central(c, u32::try_from(level).expect("torus level fits u32"))
            }
        }
    }

    fn symmetry(&self) -> String {
        "wrap-count classes levelled by diagonal position (A: x+y; B: from the far corner); torus translations do not preserve levels, so all destinations are explored".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_qdg::verify;

    #[test]
    fn odd_torus_passes_all_checks_including_full_adaptivity() {
        let rep = verify::verify_all(&TorusTwoPhase::new(3, 3), true).unwrap();
        assert!(rep.dynamic_edges > 0);
    }

    #[test]
    fn odd_rectangular_torus_passes() {
        verify::verify_all(&TorusTwoPhase::new(5, 3), true).unwrap();
    }

    #[test]
    fn even_torus_is_deadlock_free_but_tie_breaking_loses_paths() {
        let rf = TorusTwoPhase::new(4, 4);
        verify::verify_all(&rf, false).unwrap();
        // Even rings: the half-way tie is fixed to `+`, so the `-`-side
        // minimal paths are not realizable.
        let err = verify::verify_fully_adaptive(&rf).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn initial_directions_are_minimal() {
        let rf = TorusTwoPhase::new(5, 5);
        let t = rf.torus;
        // (0,0) -> (4,0): -x is minimal (1 hop).
        let m = rf.initial_msg(t.node_at(0, 0), t.node_at(4, 0));
        assert_eq!((m.dirx, m.rx, m.diry, m.ry), (-1, 1, 0, 0));
        assert!(!m.in_phase_a());
        assert_eq!(m.class(), 3);
    }

    #[test]
    fn wrap_crossings_advance_classes() {
        let rf = TorusTwoPhase::new(5, 5);
        let t = rf.torus;
        // (4,0) -> (1,0): +x through the wraparound (2 hops).
        let m = rf.initial_msg(t.node_at(4, 0), t.node_at(1, 0));
        assert_eq!((m.dirx, m.rx), (1, 2));
        let ts = rf.transitions(QueueId::central(t.node_at(4, 0), m.class()), &m);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to.node, t.node_at(0, 0));
        assert_eq!(ts[0].msg.wplus, 1);
        // Still phase A (one +x hop left): class A1.
        assert_eq!(ts[0].to.kind, fadr_qdg::QueueKind::Central(1));
    }

    #[test]
    fn phase_a_minus_moves_are_dynamic() {
        let rf = TorusTwoPhase::new(5, 5);
        let t = rf.torus;
        // (2,2) -> (1,4): -x (1 hop) and +y (2 hops).
        let m = rf.initial_msg(t.node_at(2, 2), t.node_at(1, 4));
        assert!(m.in_phase_a());
        let ts = rf.transitions(QueueId::central(t.node_at(2, 2), m.class()), &m);
        let kinds: Vec<_> = ts.iter().map(|x| (x.kind, x.hop)).collect();
        assert_eq!(
            kinds,
            vec![
                (LinkKind::Dynamic, HopKind::Link(XN)),
                (LinkKind::Static, HopKind::Link(YP)),
            ]
        );
    }
}
