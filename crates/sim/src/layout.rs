//! Flat channel/buffer layout derived from a routing function's topology
//! and per-channel buffer-class declarations (§ 6).

use fadr_qdg::{BufferClass, RoutingFunction};

/// Sentinel for "no channel" / "empty buffer slot".
pub(crate) const NONE: u32 = u32::MAX;

/// Dense indexing of directed channels and their traffic-class buffers.
///
/// A *channel* is a directed `(node, port)` edge with at least one buffer
/// class; each of its classes owns one output-buffer slot (at the source
/// node) and one input-buffer slot (at the target node), which the engine
/// stores in two flat arrays indexed by the same *buffer id*.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Number of nodes.
    pub num_nodes: usize,
    /// `max_ports` of the topology.
    pub max_ports: usize,
    /// `(node * max_ports + port) -> channel id` (or `NONE`).
    pub chan_of: Vec<u32>,
    /// Channel id → source node.
    pub chan_from: Vec<u32>,
    /// Channel id → target node.
    pub chan_to: Vec<u32>,
    /// Channel id → first buffer id.
    pub chan_buf_start: Vec<u32>,
    /// Channel id → number of buffer classes. `u16` because a channel may
    /// declare up to 257 classes (256 `Static` levels plus `Dynamic`),
    /// which overflows `u8`.
    pub chan_buf_len: Vec<u16>,
    /// Buffer id → traffic class.
    pub buf_class: Vec<BufferClass>,
    /// Buffer id → position within its source node's output buffers
    /// (see [`Layout::node_out_bufs`]).
    pub buf_out_pos: Vec<u32>,
    /// Buffer id → channel id.
    pub(crate) buf_chan: Vec<u32>,
    /// Buffers are numbered node by node, so node `v`'s output buffers
    /// are the ids `out_start[v]..out_start[v + 1]`: fill position `pos`
    /// is buffer `out_start[v] + pos`.
    pub(crate) out_start: Vec<u32>,
    /// Input buffers grouped by the node they sit at: node `v`'s are
    /// `in_flat[in_start[v]..in_start[v + 1]]`, ascending.
    pub(crate) in_flat: Vec<u32>,
    pub(crate) in_start: Vec<u32>,
    /// Buffer id → its slot in the *target* node's input buffers.
    pub(crate) buf_in_slot: Vec<u32>,
    /// Every node has at most 64 output buffers, so the fill pass can
    /// iterate want masks.
    pub(crate) fast_fill: bool,
    /// Every node has at most 63 input buffers, so the read pass can
    /// iterate an occupied-slot mask (bit `n_in` is the injection buffer).
    pub(crate) fast_read: bool,
}

impl Layout {
    /// Build the layout for a routing function.
    pub fn new<R: RoutingFunction + ?Sized>(rf: &R) -> Self {
        let topo = rf.topology();
        let n = topo.num_nodes();
        let mp = topo.max_ports();
        let mut layout = Layout {
            num_nodes: n,
            max_ports: mp,
            chan_of: vec![NONE; n * mp],
            chan_from: Vec::new(),
            chan_to: Vec::new(),
            chan_buf_start: Vec::new(),
            chan_buf_len: Vec::new(),
            buf_class: Vec::new(),
            buf_out_pos: Vec::new(),
            buf_chan: Vec::new(),
            out_start: Vec::with_capacity(n + 1),
            in_flat: Vec::new(),
            in_start: vec![0; n + 1],
            buf_in_slot: Vec::new(),
            fast_fill: false,
            fast_read: false,
        };
        for node in 0..n {
            let first = layout.buf_class.len() as u32;
            layout.out_start.push(first);
            for port in 0..mp {
                let Some(to) = topo.neighbor(node, port) else {
                    continue;
                };
                let classes = rf.buffer_classes(node, port);
                if classes.is_empty() {
                    continue;
                }
                let chan = layout.chan_to.len() as u32;
                layout.chan_of[node * mp + port] = chan;
                layout.chan_from.push(node as u32);
                layout.chan_to.push(to as u32);
                layout.chan_buf_start.push(layout.buf_class.len() as u32);
                layout
                    .chan_buf_len
                    .push(u16::try_from(classes.len()).expect("BufferClass bounds class count"));
                for class in classes {
                    layout
                        .buf_out_pos
                        .push(layout.buf_class.len() as u32 - first);
                    layout.buf_class.push(class);
                    layout.buf_chan.push(chan);
                    layout.in_start[to + 1] += 1;
                }
            }
        }
        let nb = layout.num_buffers();
        layout.out_start.push(nb as u32);
        // Group input buffers by target node (a counting sort over the
        // ascending buffer ids, so each node's list stays ascending).
        for v in 0..n {
            layout.in_start[v + 1] += layout.in_start[v];
        }
        let mut cursor = layout.in_start.clone();
        layout.in_flat = vec![0; nb];
        layout.buf_in_slot = vec![0; nb];
        for b in 0..nb {
            let to = layout.chan_to[layout.buf_chan[b] as usize] as usize;
            let at = cursor[to];
            cursor[to] += 1;
            layout.in_flat[at as usize] = b as u32;
            layout.buf_in_slot[b] = at - layout.in_start[to];
        }
        let widest = |start: &[u32]| start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        layout.fast_fill = widest(&layout.out_start) <= 64;
        layout.fast_read = widest(&layout.in_start) < 64;
        layout
    }

    /// Node `v`'s output-buffer ids in fill order (port ascending,
    /// classes in declared order).
    pub fn node_out_bufs(&self, v: usize) -> std::ops::Range<u32> {
        self.out_start[v]..self.out_start[v + 1]
    }

    /// Node `v`'s input-buffer ids (the input buffers located at `v`).
    pub fn node_in_bufs(&self, v: usize) -> &[u32] {
        &self.in_flat[self.in_start[v] as usize..self.in_start[v + 1] as usize]
    }

    /// Total buffer count.
    pub fn num_buffers(&self) -> usize {
        self.buf_class.len()
    }

    /// Total channel count.
    pub fn num_channels(&self) -> usize {
        self.chan_to.len()
    }

    /// Channel id of `(node, port)`, if it exists.
    #[inline]
    pub fn chan(&self, node: usize, port: usize) -> Option<u32> {
        let c = self.chan_of[node * self.max_ports + port];
        (c != NONE).then_some(c)
    }

    /// Buffer id for `(node, port)` and traffic class `class`.
    ///
    /// Panics if the channel or class is not declared — the model checker
    /// (`fadr_qdg::verify::verify_structure`) guarantees declared classes
    /// cover every transition.
    #[inline]
    pub fn buffer(&self, node: usize, port: usize, class: BufferClass) -> u32 {
        let chan = self.chan_of[node * self.max_ports + port];
        debug_assert_ne!(chan, NONE, "no channel at ({node}, {port})");
        let start = self.chan_buf_start[chan as usize] as usize;
        let len = self.chan_buf_len[chan as usize] as usize;
        for (i, &c) in self.buf_class[start..start + len].iter().enumerate() {
            if c == class {
                return (start + i) as u32;
            }
        }
        panic!("buffer class {class:?} not declared on ({node}, {port})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_core::HypercubeFullyAdaptive;

    #[test]
    fn hypercube_layout_counts() {
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        assert_eq!(l.num_nodes, 8);
        // Every directed edge is a channel: 3 * 8 = 24.
        assert_eq!(l.num_channels(), 24);
        // Two buffer classes per channel (up: A+B static; down: B + dyn).
        assert_eq!(l.num_buffers(), 48);
        // Each node: 3 out-channels x 2 classes, and same incoming.
        for v in 0..8 {
            assert_eq!(l.node_out_bufs(v).len(), 6);
            assert_eq!(l.node_in_bufs(v).len(), 6);
        }
    }

    #[test]
    fn buffer_resolution_matches_declared_classes() {
        use fadr_qdg::BufferClass::{Dynamic, Static};
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        // Node 0, port 1 is an upward channel: Static(0) and Static(1).
        let b0 = l.buffer(0, 1, Static(0));
        let b1 = l.buffer(0, 1, Static(1));
        assert_ne!(b0, b1);
        // Node 7, port 0 is downward: Static(1) and Dynamic.
        let _ = l.buffer(7, 0, Static(1));
        let _ = l.buffer(7, 0, Dynamic);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_class_panics() {
        use fadr_qdg::BufferClass::Static;
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        // Downward channel has no Static(0).
        let _ = l.buffer(7, 0, Static(0));
    }

    #[test]
    fn layout_supports_more_than_255_classes_per_channel() {
        use fadr_qdg::{QueueId, Transition};
        use fadr_topology::{Hypercube, NodeId, Port, Topology};

        // Degenerate routing function declaring the maximum possible number
        // of buffer classes on every channel: all 256 `Static` levels plus
        // `Dynamic` = 257, which overflowed the former `u8` channel width.
        struct ManyClasses(Hypercube);
        impl RoutingFunction for ManyClasses {
            type Msg = NodeId;
            fn topology(&self) -> &dyn Topology {
                &self.0
            }
            fn num_classes(&self) -> usize {
                256
            }
            fn initial_msg(&self, _src: NodeId, dst: NodeId) -> NodeId {
                dst
            }
            fn destination(&self, msg: &NodeId) -> NodeId {
                *msg
            }
            fn deliverable(&self, node: NodeId, msg: &NodeId) -> bool {
                node == *msg
            }
            fn for_each_transition(
                &self,
                _at: QueueId,
                _msg: &NodeId,
                _f: &mut dyn FnMut(Transition<NodeId>),
            ) {
            }
            fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
                let mut classes: Vec<BufferClass> =
                    (0..=u8::MAX).map(BufferClass::Static).collect();
                classes.push(BufferClass::Dynamic);
                classes
            }
            fn is_minimal(&self) -> bool {
                false
            }
            fn max_hops(&self) -> usize {
                1
            }
            fn name(&self) -> String {
                "many-classes".into()
            }
        }

        let rf = ManyClasses(Hypercube::new(1));
        let l = Layout::new(&rf);
        assert_eq!(l.num_channels(), 2);
        assert_eq!(l.chan_buf_len, vec![257, 257]);
        assert_eq!(l.num_buffers(), 2 * 257);
        assert_eq!(l.buffer(0, 0, BufferClass::Static(255)), 255);
        assert_eq!(l.buffer(0, 0, BufferClass::Dynamic), 256);
    }

    #[test]
    fn fast_path_flags_follow_node_width() {
        // Hypercube(4) nodes carry 8 output and 8 input buffers; EcubeSbp(9)
        // nodes carry 81 of each, past both mask widths.
        let narrow = Layout::new(&HypercubeFullyAdaptive::new(4));
        assert!(narrow.fast_fill && narrow.fast_read);
        let wide = Layout::new(&fadr_core::EcubeSbp::new(9));
        assert_eq!(wide.node_out_bufs(0).len(), 81);
        assert_eq!(wide.node_in_bufs(0).len(), 81);
        assert!(!wide.fast_fill && !wide.fast_read);
        // Every buffer sits in exactly one input list, at its slot.
        let mut seen = vec![false; narrow.num_buffers()];
        for v in 0..narrow.num_nodes {
            for (i, &b) in narrow.node_in_bufs(v).iter().enumerate() {
                let chan = narrow.buf_chan[b as usize] as usize;
                assert_eq!(narrow.chan_to[chan] as usize, v);
                assert_eq!(narrow.buf_in_slot[b as usize] as usize, i);
                assert!(!std::mem::replace(&mut seen[b as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn out_positions_invert_out_lists() {
        let rf = HypercubeFullyAdaptive::new(4);
        let l = Layout::new(&rf);
        for v in 0..l.num_nodes {
            for (pos, b) in l.node_out_bufs(v).enumerate() {
                assert_eq!(l.buf_out_pos[b as usize] as usize, pos);
                assert_eq!(l.chan_from[l.buf_chan[b as usize] as usize] as usize, v);
            }
        }
    }
}
