//! Deterministic, seeded fault injection: scheduled link/node/queue
//! failures applied identically by the sequential and sharded engines.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each firing at a fixed
//! routing cycle:
//!
//! * [`FaultKind::LinkDown`] — a directed channel dies permanently;
//!   packets staged on it are reabsorbed into the sender's central queue
//!   and rerouted;
//! * [`FaultKind::NodeDown`] — a node dies permanently with all incident
//!   channels; every packet resident at the node (queued, staged, in an
//!   input or injection buffer) is dropped, and packets staged *toward*
//!   it at live senders are reabsorbed;
//! * [`FaultKind::QueueFreeze`] — a central queue refuses all movement
//!   (in and out) for a bounded number of cycles, then thaws;
//! * [`FaultKind::FlakyLink`] — a directed channel drops a deterministic
//!   pseudo-random fraction of cycles until a deadline; a packet staged
//!   on it for [`FaultPlan::retry_limit`] consecutive down-cycles is
//!   reabsorbed and rerouted (bounded retry with re-queue backoff).
//!
//! All fault state is a pure function of `(plan, cycle)` plus
//! sender-local buffer occupancy, so a sharded run applies the exact
//! same faults at the exact same cycles as a sequential one — the
//! differential suite (`tests/fault_equivalence.rs`) asserts
//! bit-identical results.
//!
//! Plans serialize as JSON (schema `fadr-faults/1`); see
//! [`FaultPlan::to_json`] / [`FaultPlan::parse`].

use std::fmt::Write as _;
use std::sync::Arc;

use fadr_topology::graph::{self, Csr, DistanceRows};

use crate::json::{self, Quoted, Reader};
use crate::layout::Layout;

/// Recorder kind code for a link-down event (see `Recorder::on_fault`).
pub const FAULT_LINK_DOWN: u8 = 0;
/// Recorder kind code for a node-down event.
pub const FAULT_NODE_DOWN: u8 = 1;
/// Recorder kind code for a queue-freeze event.
pub const FAULT_QUEUE_FREEZE: u8 = 2;
/// Recorder kind code for a flaky-link event.
pub const FAULT_FLAKY_LINK: u8 = 3;

/// One kind of scheduled fault; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The directed channel `from → to` dies permanently.
    LinkDown {
        /// Source node of the channel.
        from: u32,
        /// Target node of the channel.
        to: u32,
    },
    /// `node` dies permanently, with every incident channel.
    NodeDown {
        /// The failing node.
        node: u32,
    },
    /// Central queue `(node, class)` freezes for `duration` cycles.
    QueueFreeze {
        /// Node of the frozen queue.
        node: u32,
        /// Class of the frozen queue.
        class: u8,
        /// Cycles until the queue thaws.
        duration: u64,
    },
    /// The directed channel `from → to` drops ~`threshold`% of cycles
    /// (deterministically, from the plan seed) until cycle `until`.
    FlakyLink {
        /// Source node of the channel.
        from: u32,
        /// Target node of the channel.
        to: u32,
        /// First cycle at which the channel is reliable again.
        until: u64,
        /// Percentage (0..=100) of cycles the channel is down.
        threshold: u8,
    },
}

impl FaultKind {
    /// Recorder kind code (`FAULT_*`).
    pub fn code(self) -> u8 {
        match self {
            FaultKind::LinkDown { .. } => FAULT_LINK_DOWN,
            FaultKind::NodeDown { .. } => FAULT_NODE_DOWN,
            FaultKind::QueueFreeze { .. } => FAULT_QUEUE_FREEZE,
            FaultKind::FlakyLink { .. } => FAULT_FLAKY_LINK,
        }
    }

    /// The node whose shard applies this event's packet surgery and
    /// records it (the channel source for link faults).
    pub(crate) fn primary_node(self) -> u32 {
        match self {
            FaultKind::LinkDown { from, .. } | FaultKind::FlakyLink { from, .. } => from,
            FaultKind::NodeDown { node } | FaultKind::QueueFreeze { node, .. } => node,
        }
    }
}

/// A fault scheduled at a routing cycle. Events at cycle `c` take effect
/// after cycle `c`'s injections and before its fill pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Routing cycle the fault fires at.
    pub cycle: u64,
    /// What fails.
    pub kind: FaultKind,
}

/// A deterministic, seeded fault schedule (schema `fadr-faults/1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the flaky-link down-cycle hash (independent of the
    /// simulation's workload seed).
    pub seed: u64,
    /// Consecutive flaky down-cycles a staged packet waits before being
    /// reabsorbed and rerouted; 0 disables the retry bound (packets wait
    /// out the flaky window in place).
    pub retry_limit: u32,
    /// The scheduled faults (sorted by cycle on construction/parse).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given flaky seed and retry limit.
    pub fn new(seed: u64, retry_limit: u32) -> Self {
        Self {
            seed,
            retry_limit,
            events: Vec::new(),
        }
    }

    /// Append an event (re-sorting is deferred to [`FaultPlan::normalize`],
    /// which the engines call when the plan is attached).
    pub fn push(&mut self, cycle: u64, kind: FaultKind) {
        self.events.push(FaultEvent { cycle, kind });
    }

    /// Sort events by cycle (stable: same-cycle events keep insertion
    /// order, which both engines then process identically).
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.cycle);
    }

    /// Nodes dead after every event has fired.
    pub fn final_dead_nodes(&self, num_nodes: usize) -> Vec<bool> {
        let mut dead = vec![false; num_nodes];
        for e in &self.events {
            if let FaultKind::NodeDown { node } = e.kind {
                if (node as usize) < num_nodes {
                    dead[node as usize] = true;
                }
            }
        }
        dead
    }

    /// Directed `(from, to)` pairs permanently killed by `LinkDown`
    /// events (channels incident to dead nodes are additionally dead;
    /// combine with [`FaultPlan::final_dead_nodes`]).
    pub fn final_dead_links(&self) -> Vec<(u32, u32)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { from, to } => Some((from, to)),
                _ => None,
            })
            .collect()
    }

    /// Serialize as JSON (schema `fadr-faults/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\": {}, \"seed\": {}, \"retry_limit\": {}, \"events\": ",
            Quoted(SCHEMA),
            self.seed,
            self.retry_limit
        );
        json::list(&mut out, &self.events, |out, e| {
            write!(out, "{{\"cycle\": {}, ", e.cycle)?;
            match e.kind {
                FaultKind::LinkDown { from, to } => write!(
                    out,
                    "\"kind\": \"link_down\", \"from\": {from}, \"to\": {to}}}"
                ),
                FaultKind::NodeDown { node } => {
                    write!(out, "\"kind\": \"node_down\", \"node\": {node}}}")
                }
                FaultKind::QueueFreeze {
                    node,
                    class,
                    duration,
                } => write!(
                    out,
                    "\"kind\": \"queue_freeze\", \"node\": {node}, \"class\": {class}, \"duration\": {duration}}}"
                ),
                FaultKind::FlakyLink {
                    from,
                    to,
                    until,
                    threshold,
                } => write!(
                    out,
                    "\"kind\": \"flaky_link\", \"from\": {from}, \"to\": {to}, \"until\": {until}, \"threshold\": {threshold}}}"
                ),
            }
        });
        out.push('}');
        out
    }

    /// Parse a `fadr-faults/1` JSON document. Events are sorted by cycle.
    /// An unknown or repeated key, at the top level or in an event, is
    /// an error naming the key.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Reader::new(text);
        let plan = Self::read(&mut r)?;
        r.end()?;
        Ok(plan)
    }

    /// Read a `fadr-faults/1` object at the reader's position (the rules
    /// of [`FaultPlan::parse`]); documents that embed a plan read it in
    /// place.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0, 0);
        let seen = r.object(&["schema", "seed", "retry_limit", "events"], |slot, r| {
            match slot {
                0 => {
                    let s = r.str()?;
                    if s != SCHEMA {
                        return Err(format!("unsupported schema {s:?} (want {SCHEMA})"));
                    }
                }
                1 => plan.seed = r.u64()?,
                2 => {
                    plan.retry_limit = u32::try_from(r.u64()?)
                        .map_err(|_| "retry_limit out of range".to_string())?;
                }
                _ => r.array(|r| {
                    plan.events.push(read_event(r)?);
                    Ok(())
                })?,
            }
            Ok(())
        })?;
        if !seen.has("schema") {
            return Err("missing \"schema\" key".into());
        }
        plan.normalize();
        Ok(plan)
    }
}

/// Schema tag of a serialized [`FaultPlan`].
const SCHEMA: &str = "fadr-faults/1";

/// Read one event object, rejecting unknown, repeated, missing and
/// kind-foreign keys.
fn read_event(r: &mut Reader<'_>) -> Result<FaultEvent, String> {
    let (kind, vals, seen) = r.tagged(&[
        "kind",
        "cycle",
        "from",
        "to",
        "node",
        "class",
        "duration",
        "until",
        "threshold",
    ])?;
    let takes: &[&str] = match kind {
        "link_down" => &["kind", "cycle", "from", "to"],
        "node_down" => &["kind", "cycle", "node"],
        "queue_freeze" => &["kind", "cycle", "node", "class", "duration"],
        "flaky_link" => &["kind", "cycle", "from", "to", "until", "threshold"],
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    seen.exactly(takes, format_args!("{kind} event"))?;
    let [_, cycle, from, to, node, class, duration, until, threshold] = vals;
    let u32_of = |v: u64, name: &str| u32::try_from(v).map_err(|_| format!("{name} out of range"));
    let u8_of = |v: u64, name: &str| u8::try_from(v).map_err(|_| format!("{name} out of range"));
    let kind = match kind {
        "link_down" => FaultKind::LinkDown {
            from: u32_of(from, "from")?,
            to: u32_of(to, "to")?,
        },
        "node_down" => FaultKind::NodeDown {
            node: u32_of(node, "node")?,
        },
        "queue_freeze" => FaultKind::QueueFreeze {
            node: u32_of(node, "node")?,
            class: u8_of(class, "class")?,
            duration,
        },
        _ => {
            let threshold = u8_of(threshold, "threshold")?;
            if threshold > 100 {
                return Err("flaky_link threshold must be 0..=100".into());
            }
            FaultKind::FlakyLink {
                from: u32_of(from, "from")?,
                to: u32_of(to, "to")?,
                until,
                threshold,
            }
        }
    };
    Ok(FaultEvent { cycle, kind })
}

/// Whether flaky channel `chan` is down at `cycle`: a pure hash of
/// `(seed, chan, cycle)` compared against the percentage threshold, so
/// every shard (and both engines) agree without communication.
fn flaky_down(seed: u64, chan: u32, cycle: u64, threshold: u8) -> bool {
    // SplitMix64 over the mixed inputs.
    let mut z = seed
        ^ u64::from(chan).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 100) < u64::from(threshold)
}

/// Per-run mutable fault state, rebuilt from the plan on every
/// `Simulator::reset`. One instance per (shard) simulator; all flag
/// state (dead channels/nodes, freezes, flaky windows) is replicated
/// identically across shards, while packet surgery is gated on node
/// ownership by the caller.
pub(crate) struct FaultState {
    pub(crate) plan: Arc<FaultPlan>,
    /// Index of the next unapplied event (events are cycle-sorted).
    pub(crate) next_event: usize,
    chan_dead: Vec<bool>,
    node_dead: Vec<bool>,
    /// Queue `node * num_classes + class` is frozen while
    /// `cycle < frozen_until[q]`.
    frozen_until: Vec<u64>,
    /// Active flaky window per channel: `(until, threshold)`.
    flaky: Vec<Option<(u64, u8)>>,
    /// Channels that ever had a flaky window (small; scanned per cycle).
    pub(crate) flaky_chans: Vec<u32>,
    /// Consecutive flaky down-cycles a packet has been staged on each
    /// channel (meaningful only on the shard owning the channel source).
    fail_count: Vec<u32>,
    /// Fast path: no channel is permanently dead yet.
    has_dead: bool,
    /// Surviving-graph distances over the live channels between live
    /// nodes (`None` until the first lookup), reset on each permanent
    /// change.
    dist: Option<DistanceRows>,
    /// Destinations every live node is as far from as before any fault
    /// ([`graph::intact_targets`]; `None` until the first lookup), reset
    /// with the distances.
    intact: Option<Vec<bool>>,
}

impl FaultState {
    pub(crate) fn new(plan: Arc<FaultPlan>, layout: &Layout, num_classes: usize) -> Self {
        let n = layout.num_nodes;
        Self {
            plan,
            next_event: 0,
            chan_dead: vec![false; layout.num_channels()],
            node_dead: vec![false; n],
            frozen_until: vec![0; n * num_classes],
            flaky: vec![None; layout.num_channels()],
            flaky_chans: Vec::new(),
            fail_count: vec![0; layout.num_channels()],
            has_dead: false,
            dist: None,
            intact: None,
        }
    }

    /// Whether any channel is permanently dead (gates option filtering).
    pub(crate) fn has_dead(&self) -> bool {
        self.has_dead
    }

    /// Mark a channel permanently dead; returns whether it was alive.
    pub(crate) fn kill_chan(&mut self, chan: u32) -> bool {
        let was_alive = !self.chan_dead[chan as usize];
        self.chan_dead[chan as usize] = true;
        self.has_dead = true;
        was_alive
    }

    pub(crate) fn is_node_dead(&self, v: usize) -> bool {
        self.node_dead[v]
    }

    /// Mark a node permanently dead; returns whether it was alive.
    pub(crate) fn kill_node(&mut self, v: usize) -> bool {
        let was_alive = !self.node_dead[v];
        self.node_dead[v] = true;
        was_alive
    }

    /// Freeze queue `q` until `until` (extends an active freeze).
    pub(crate) fn freeze(&mut self, q: usize, until: u64) {
        self.frozen_until[q] = self.frozen_until[q].max(until);
    }

    pub(crate) fn frozen(&self, q: usize, cycle: u64) -> bool {
        cycle < self.frozen_until[q]
    }

    /// Open (or extend) a flaky window on a channel.
    pub(crate) fn set_flaky(&mut self, chan: u32, until: u64, threshold: u8) {
        if self.flaky[chan as usize].is_none() && !self.flaky_chans.contains(&chan) {
            self.flaky_chans.push(chan);
        }
        self.flaky[chan as usize] = Some((until, threshold));
    }

    /// Expire a flaky window whose deadline passed; returns the active
    /// window otherwise.
    pub(crate) fn flaky_window(&mut self, chan: u32, cycle: u64) -> Option<(u64, u8)> {
        match self.flaky[chan as usize] {
            Some((until, _)) if cycle >= until => {
                self.flaky[chan as usize] = None;
                self.fail_count[chan as usize] = 0;
                None
            }
            w => w,
        }
    }

    /// Whether the flaky hash declares `chan` down at `cycle` (only
    /// meaningful while a window is active).
    pub(crate) fn flaky_down_at(&self, chan: u32, cycle: u64, threshold: u8) -> bool {
        flaky_down(self.plan.seed, chan, cycle, threshold)
    }

    /// Whether `chan` refuses traffic at `cycle` (dead, or flaky-down).
    pub(crate) fn link_blocked(&self, chan: u32, cycle: u64) -> bool {
        if self.chan_dead[chan as usize] {
            return true;
        }
        match self.flaky[chan as usize] {
            Some((until, threshold)) if cycle < until => self.flaky_down_at(chan, cycle, threshold),
            _ => false,
        }
    }

    /// Bump the consecutive-down counter for a staged channel; returns
    /// true when the retry limit is reached (and resets the counter).
    pub(crate) fn count_fail(&mut self, chan: u32) -> bool {
        self.fail_count[chan as usize] += 1;
        if self.fail_count[chan as usize] >= self.plan.retry_limit {
            self.fail_count[chan as usize] = 0;
            true
        } else {
            false
        }
    }

    /// Reset the consecutive-down counter (channel drained or crossed).
    pub(crate) fn reset_fail(&mut self, chan: u32) {
        self.fail_count[chan as usize] = 0;
    }

    /// Non-zero consecutive-down counters as `(chan, count)`, ascending
    /// by channel — the only per-run fault state a checkpoint must carry
    /// (dead/frozen/flaky flags are replayed from the plan on restore).
    pub(crate) fn fail_counts(&self) -> Vec<(u32, u32)> {
        self.fail_count
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(chan, &c)| (chan as u32, c))
            .collect()
    }

    /// Restore one consecutive-down counter from a checkpoint; false if
    /// the channel id is out of range.
    pub(crate) fn set_fail_count(&mut self, chan: u32, count: u32) -> bool {
        match self.fail_count.get_mut(chan as usize) {
            Some(slot) => {
                *slot = count;
                true
            }
            None => false,
        }
    }

    /// Rebuild the surviving graph the distances run over (call on any
    /// permanent topology change): every distance row and the intact set
    /// go stale.
    pub(crate) fn reset_distances(&mut self, layout: &Layout) {
        self.intact = None;
        if let Some(dist) = &mut self.dist {
            dist.reset(live_graph(layout, &self.chan_dead, &self.node_dead));
        }
    }

    /// Whether every live node is exactly as far from `dst` over the
    /// surviving graph as before any fault. Toward such a destination a
    /// minimal hop over a live channel to a live node is one hop of
    /// surviving progress, so no distance row is needed.
    pub(crate) fn intact(&mut self, dst: u32, layout: &Layout) -> bool {
        let (chan_dead, node_dead) = (&self.chan_dead, &self.node_dead);
        self.intact.get_or_insert_with(|| {
            graph::intact_targets(
                &channel_graph(layout, |_| true),
                &live_graph(layout, chan_dead, node_dead),
                node_dead,
            )
        })[dst as usize]
    }

    /// Whether `chan` and its target are alive.
    pub(crate) fn chan_alive(&self, chan: u32, layout: &Layout) -> bool {
        !self.chan_dead[chan as usize] && !self.node_dead[layout.chan_to[chan as usize] as usize]
    }

    /// The surviving graph seen from `dst`. A miss fills the distance
    /// rows of `dst`'s whole batch of 64 destinations in one traversal,
    /// so routing toward every destination costs `N / 64` traversals
    /// per permanent change. A minimal scheme asks only for destinations
    /// outside the intact set ([`FaultState::intact`]) and for escape
    /// hops.
    pub(crate) fn toward<'a>(&'a mut self, dst: u32, layout: &'a Layout) -> Toward<'a> {
        let (chan_dead, node_dead) = (&self.chan_dead, &self.node_dead);
        let dist = self
            .dist
            .get_or_insert_with(|| DistanceRows::new(live_graph(layout, chan_dead, node_dead)))
            .row(dst as usize);
        Toward {
            dist,
            chan_dead,
            node_dead,
            chan_to: &layout.chan_to,
        }
    }
}

/// Successor lists over the live channels between live nodes.
fn live_graph(layout: &Layout, chan_dead: &[bool], node_dead: &[bool]) -> Csr {
    channel_graph(layout, |chan| {
        let (from, to) = (layout.chan_from[chan], layout.chan_to[chan]);
        !chan_dead[chan] && !node_dead[from as usize] && !node_dead[to as usize]
    })
}

/// Successor lists over the channels `keep` accepts.
fn channel_graph(layout: &Layout, keep: impl Fn(usize) -> bool) -> Csr {
    Csr::build(layout.num_nodes, |u, out| {
        for port in 0..layout.max_ports {
            match layout.chan(u, port) {
                Some(chan) if keep(chan as usize) => out.push(layout.chan_to[chan as usize]),
                _ => {}
            }
        }
    })
}

/// The surviving graph seen from one destination
/// ([`FaultState::toward`]).
pub(crate) struct Toward<'a> {
    /// Hop distance from each node to the destination (`u32::MAX` =
    /// unreachable).
    pub(crate) dist: &'a [u32],
    chan_dead: &'a [bool],
    node_dead: &'a [bool],
    chan_to: &'a [u32],
}

impl Toward<'_> {
    /// Whether crossing `chan` from a node at distance `here` is one hop
    /// of surviving shortest-path progress: the channel and its target
    /// are alive, and the target is one hop closer.
    pub(crate) fn advances(&self, chan: u32, here: u32) -> bool {
        let to = self.chan_to[chan as usize] as usize;
        !self.chan_dead[chan as usize]
            && !self.node_dead[to]
            && here != u32::MAX
            && self.dist[to] == here - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        let mut plan = FaultPlan::new(42, 3);
        plan.push(10, FaultKind::LinkDown { from: 0, to: 1 });
        plan.push(
            4,
            FaultKind::QueueFreeze {
                node: 2,
                class: 0,
                duration: 8,
            },
        );
        plan.push(12, FaultKind::NodeDown { node: 5 });
        plan.push(
            0,
            FaultKind::FlakyLink {
                from: 3,
                to: 2,
                until: 40,
                threshold: 30,
            },
        );
        plan.normalize();
        plan
    }

    #[test]
    fn json_round_trip() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back = FaultPlan::parse(&json).expect("round trip parses");
        assert_eq!(plan, back);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("{}").is_err(), "schema key is required");
        assert!(FaultPlan::parse("{\"schema\": \"fadr-faults/2\"}").is_err());
        assert!(FaultPlan::parse(
            "{\"schema\": \"fadr-faults/1\", \"events\": [{\"cycle\": 1, \"kind\": \"melt\"}]}"
        )
        .is_err());
        assert!(
            FaultPlan::parse(
                "{\"schema\": \"fadr-faults/1\", \"events\": [{\"cycle\": 1, \"kind\": \"link_down\", \"from\": 0}]}"
            )
            .is_err(),
            "link_down needs both endpoints"
        );
        let rejects = |text: &str, key: &str| {
            let err = FaultPlan::parse(text).expect_err(text);
            assert!(err.contains(key), "{err:?} must name {key:?}");
        };
        // A key the event's kind does not take.
        rejects(
            "{\"schema\": \"fadr-faults/1\", \"events\": [{\"cycle\": 3, \"kind\": \"node_down\", \"node\": 5, \"from\": 7}]}",
            "\"from\"",
        );
        // A repeated top-level key.
        rejects(
            "{\"schema\": \"fadr-faults/1\", \"seed\": 1, \"seed\": 2}",
            "\"seed\"",
        );
        // A repeated event key.
        rejects(
            "{\"schema\": \"fadr-faults/1\", \"events\": [{\"cycle\": 1, \"kind\": \"link_down\", \"from\": 0, \"to\": 1, \"to\": 2}]}",
            "\"to\"",
        );
        // A key no event takes.
        rejects(
            "{\"schema\": \"fadr-faults/1\", \"events\": [{\"cycle\": 1, \"kind\": \"node_down\", \"node\": 1, \"color\": 2}]}",
            "\"color\"",
        );
    }

    #[test]
    fn parse_sorts_events_by_cycle() {
        let json = "{\"schema\": \"fadr-faults/1\", \"seed\": 1, \"retry_limit\": 2, \"events\": [\
                    {\"cycle\": 9, \"kind\": \"node_down\", \"node\": 1}, \
                    {\"cycle\": 3, \"kind\": \"link_down\", \"from\": 0, \"to\": 1}]}";
        let plan = FaultPlan::parse(json).unwrap();
        assert_eq!(plan.events[0].cycle, 3);
        assert_eq!(plan.events[1].cycle, 9);
    }

    #[test]
    fn flaky_hash_is_deterministic_and_threshold_scaled() {
        let down = |t: u8| (0..1000u64).filter(|&c| flaky_down(7, 3, c, t)).count();
        assert_eq!(down(0), 0);
        assert_eq!(down(100), 1000);
        let half = down(50);
        assert!(
            (350..=650).contains(&half),
            "50% threshold should down roughly half the cycles, got {half}"
        );
        // Pure function: same inputs, same answer.
        assert_eq!(flaky_down(7, 3, 123, 50), flaky_down(7, 3, 123, 50));
    }

    #[test]
    fn final_state_helpers() {
        let plan = sample_plan();
        let dead = plan.final_dead_nodes(8);
        assert!(dead[5]);
        assert_eq!(dead.iter().filter(|&&d| d).count(), 1);
        assert_eq!(plan.final_dead_links(), vec![(0, 1)]);
    }
}
