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

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

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
        let mut out = String::from("{\"schema\": \"fadr-faults/1\", ");
        let _ = write!(
            out,
            "\"seed\": {}, \"retry_limit\": {}, \"events\": [",
            self.seed, self.retry_limit
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"cycle\": {}, ", e.cycle);
            match e.kind {
                FaultKind::LinkDown { from, to } => {
                    let _ = write!(
                        out,
                        "\"kind\": \"link_down\", \"from\": {from}, \"to\": {to}"
                    );
                }
                FaultKind::NodeDown { node } => {
                    let _ = write!(out, "\"kind\": \"node_down\", \"node\": {node}");
                }
                FaultKind::QueueFreeze {
                    node,
                    class,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\": \"queue_freeze\", \"node\": {node}, \"class\": {class}, \"duration\": {duration}"
                    );
                }
                FaultKind::FlakyLink {
                    from,
                    to,
                    until,
                    threshold,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\": \"flaky_link\", \"from\": {from}, \"to\": {to}, \"until\": {until}, \"threshold\": {threshold}"
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a `fadr-faults/1` JSON document. Events are sorted by cycle.
    /// An unknown or repeated key, at the top level or in an event, is
    /// an error naming the key.
    pub fn parse(text: &str) -> Result<Self, String> {
        const KEYS: [&str; 4] = ["schema", "seed", "retry_limit", "events"];
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let mut plan = FaultPlan::new(0, 0);
        let mut seen = [false; KEYS.len()];
        p.expect(b'{')?;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.expect(b':')?;
            let slot = KEYS
                .iter()
                .position(|&k| k == key)
                .ok_or_else(|| format!("unknown key {key:?}"))?;
            if std::mem::replace(&mut seen[slot], true) {
                return Err(format!("duplicate key {key:?} in fault plan"));
            }
            match key {
                "schema" => {
                    let s = p.string()?;
                    if s != "fadr-faults/1" {
                        return Err(format!("unsupported schema {s:?} (want fadr-faults/1)"));
                    }
                }
                "seed" => plan.seed = p.u64()?,
                "retry_limit" => {
                    plan.retry_limit = u32::try_from(p.u64()?)
                        .map_err(|_| "retry_limit out of range".to_string())?;
                }
                _ => {
                    p.expect(b'[')?;
                    p.skip_ws();
                    if !p.eat(b']') {
                        loop {
                            plan.events.push(parse_event(&mut p)?);
                            p.skip_ws();
                            if p.eat(b']') {
                                break;
                            }
                            p.expect(b',')?;
                        }
                    }
                }
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.expect(b'}')?;
                break;
            }
        }
        p.skip_ws();
        if p.i != p.b.len() {
            return Err("trailing data after fault plan".into());
        }
        if !seen[0] {
            return Err("missing \"schema\" key".into());
        }
        plan.normalize();
        Ok(plan)
    }
}

/// The numeric fields a fault event may carry; each kind takes a subset.
const EVENT_FIELDS: [&str; 7] = [
    "from",
    "to",
    "node",
    "class",
    "duration",
    "until",
    "threshold",
];

/// Parse one event object into fixed per-field slots (no allocation per
/// field), rejecting unknown, repeated and kind-foreign keys.
fn parse_event(p: &mut Parser<'_>) -> Result<FaultEvent, String> {
    let mut cycle: Option<u64> = None;
    let mut kind: Option<&str> = None;
    let mut vals = [None::<u64>; EVENT_FIELDS.len()];
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.expect(b':')?;
        let repeated = match key {
            "cycle" => cycle.replace(p.u64()?).is_some(),
            "kind" => kind.replace(p.string()?).is_some(),
            _ => {
                let i = EVENT_FIELDS
                    .iter()
                    .position(|&f| f == key)
                    .ok_or_else(|| format!("unknown key {key:?} in fault event"))?;
                vals[i].replace(p.u64()?).is_some()
            }
        };
        if repeated {
            return Err(format!("duplicate key {key:?} in fault event"));
        }
        p.skip_ws();
        if !p.eat(b',') {
            p.expect(b'}')?;
            break;
        }
    }
    let cycle = cycle.ok_or("event missing \"cycle\"")?;
    let kind = kind.ok_or("event missing \"kind\"")?;
    let takes: &[&str] = match kind {
        "link_down" => &["from", "to"],
        "node_down" => &["node"],
        "queue_freeze" => &["node", "class", "duration"],
        "flaky_link" => &["from", "to", "until", "threshold"],
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    if let Some(i) =
        (0..EVENT_FIELDS.len()).find(|&i| vals[i].is_some() && !takes.contains(&EVENT_FIELDS[i]))
    {
        return Err(format!("{kind} event does not take {:?}", EVENT_FIELDS[i]));
    }
    let get = |name: &str| -> Result<u64, String> {
        EVENT_FIELDS
            .iter()
            .position(|&f| f == name)
            .and_then(|i| vals[i])
            .ok_or_else(|| format!("{kind} event missing {name:?}"))
    };
    let get32 = |name: &str| -> Result<u32, String> {
        u32::try_from(get(name)?).map_err(|_| format!("{name} out of range"))
    };
    let get8 = |name: &str| -> Result<u8, String> {
        u8::try_from(get(name)?).map_err(|_| format!("{name} out of range"))
    };
    let kind = match kind {
        "link_down" => FaultKind::LinkDown {
            from: get32("from")?,
            to: get32("to")?,
        },
        "node_down" => FaultKind::NodeDown {
            node: get32("node")?,
        },
        "queue_freeze" => FaultKind::QueueFreeze {
            node: get32("node")?,
            class: get8("class")?,
            duration: get("duration")?,
        },
        _ => {
            let threshold = get8("threshold")?;
            if threshold > 100 {
                return Err("flaky_link threshold must be 0..=100".into());
            }
            FaultKind::FlakyLink {
                from: get32("from")?,
                to: get32("to")?,
                until: get("until")?,
                threshold,
            }
        }
    };
    Ok(FaultEvent { cycle, kind })
}

/// Minimal JSON scanner for the flat `fadr-faults/1` shape (objects,
/// arrays, strings without escapes, unsigned integers).
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, ch: u8) -> bool {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == ch {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.eat(ch) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of fault plan",
                char::from(ch),
                self.i
            ))
        }
    }

    /// A string token, borrowed from the input.
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            if self.b[self.i] == b'\\' {
                return Err("escape sequences are not supported in fault plans".into());
            }
            self.i += 1;
        }
        if self.i == self.b.len() {
            return Err("unterminated string".into());
        }
        let s = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| "invalid UTF-8 in string".to_string())?;
        self.i += 1;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "number out of range".to_string())
    }
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
    /// dst → distance-to-dst over the surviving graph (`u32::MAX` =
    /// unreachable), computed lazily and invalidated on permanent
    /// topology changes.
    dist: HashMap<u32, Vec<u32>>,
    /// Per node: incoming channel ids (reverse adjacency for the BFS).
    in_chans: Vec<Vec<u32>>,
}

impl FaultState {
    pub(crate) fn new(plan: Arc<FaultPlan>, layout: &Layout, num_classes: usize) -> Self {
        let n = layout.num_nodes;
        let mut in_chans = vec![Vec::new(); n];
        for chan in 0..layout.num_channels() {
            in_chans[layout.chan_to[chan] as usize].push(chan as u32);
        }
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
            dist: HashMap::new(),
            in_chans,
        }
    }

    /// Whether any channel is permanently dead (gates option filtering).
    pub(crate) fn has_dead(&self) -> bool {
        self.has_dead
    }

    pub(crate) fn chan_dead(&self, chan: u32) -> bool {
        self.chan_dead[chan as usize]
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

    /// Invalidate the surviving-graph distance cache (call on any
    /// permanent topology change).
    pub(crate) fn clear_distances(&mut self) {
        self.dist.clear();
    }

    /// Ensure the distance-to-`dst` table over the surviving graph is
    /// cached (reverse BFS from `dst` over live channels between live
    /// nodes).
    pub(crate) fn ensure_distances(&mut self, dst: u32, layout: &Layout) {
        if self.dist.contains_key(&dst) {
            return;
        }
        let n = layout.num_nodes;
        let mut d = vec![u32::MAX; n];
        if !self.node_dead[dst as usize] {
            d[dst as usize] = 0;
            let mut frontier = vec![dst as usize];
            let mut next = Vec::new();
            let mut depth = 0u32;
            while !frontier.is_empty() {
                depth += 1;
                for &v in &frontier {
                    for &c in &self.in_chans[v] {
                        if self.chan_dead[c as usize] {
                            continue;
                        }
                        let u = layout.chan_from[c as usize] as usize;
                        if self.node_dead[u] || d[u] != u32::MAX {
                            continue;
                        }
                        d[u] = depth;
                        next.push(u);
                    }
                }
                frontier.clear();
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        self.dist.insert(dst, d);
    }

    /// The cached distance table for `dst` ([`FaultState::ensure_distances`]
    /// must have run).
    pub(crate) fn distances(&self, dst: u32) -> &[u32] {
        self.dist.get(&dst).expect("distance table ensured")
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
