//! The `fadr-snapshot/2` checkpoint format: the complete engine state at
//! a pause point as one JSON document on one line, written with the
//! writer pieces of `fadr_metrics::json` and read by its strict
//! [`Reader`] (DESIGN.md §§ 13 and 18).
//!
//! # Format
//!
//! A snapshot is taken at the deterministic pause point "cycle `P`,
//! post-injection, pre-fault-application". At that point the engine
//! state is *minimal*: cross-shard mailboxes are empty, every in-flight
//! packet exists exactly once (in a central queue, an injection buffer,
//! or an output/input buffer), and all derived state (queue lengths,
//! channel-pending counts, occupancy bitsets, cached routing options)
//! is a pure function of the packet placement plus the fault flags —
//! so none of it is stored; restore recomputes it.
//!
//! ```text
//! {"schema": "fadr-snapshot/2", "meta": "<label>",
//!  "cfg": {"queue_capacity": C, "seed": S, "max_cycles": M, "fill_order": F,
//!          "track_occupancy": 0|1, "check_minimality": 0|1, "throughput_window": W},
//!  "layout": {"nodes": N, "classes": K, "buffers": B, "channels": H},
//!  "state": {"cycle": P, "next_uid": U, "delivered": D, "dropped": X, "minviol": V},
//!  "packets": [[loc, at, src, dst, uid, hops, inject, enqueued, moved,
//!               class, next_class, escape, msg words…], …],
//!  "chan_rr": [r, …], "fail": [[chan, count], …],
//!  "stats": {"count": n, "sum": [high, low], "min": a, "max": b,
//!            "saturated": 0|1, "hist": [[latency, count], …]},
//!  "occupancy": {"samples": s, "max": […], "sum": […]},          (when tracked)
//!  "throughput": {"window": W, "saturated": 0|1, "sums": [f64 bits, …]},  (when kept)
//!  "progress": {"kind": "static", "lost": L, "next_idx": […]}
//!            | {"kind": "dynamic", "attempts": A, "injected": I}}
//! ```
//!
//! A packet's location code is 0 (central queue of node `at`, records
//! in FIFO order), 1 (injection buffer of node `at`), 2 or 3 (output or
//! input buffer `at`); the eleven `PacketInit` fields follow in
//! order, the message's [`SnapshotMsg`] words last. Packets appear in a
//! canonical order (`Loc::all`), so a sharded checkpoint (assembled
//! from the owning shards) is **byte-identical** to the sequential
//! engine's at the same cycle. The `u128` latency sum is two `u64`
//! words, an absent `min`, `max`, `occupancy` or `throughput` is an
//! absent key, throughput sums are `f64` bit patterns, and flags are 0
//! or 1.
//!
//! Every number goes through [`Reader::u64`], so every syntax error ends
//! in `at byte N`; a value that does not fit its field is an error
//! naming the field. Resuming from a corrupted snapshot must not
//! silently turn into a different run.

use std::fmt::{self, Write as _};

use fadr_metrics::json::{self, Quoted, Reader, Seen};
use fadr_metrics::{Histogram, LatencyStats, TimeSeries};
use fadr_qdg::SnapshotMsg;

use crate::engine::{OccupancyProbe, RunProgress};
use crate::store::PacketInit;
use crate::{FillOrder, SimConfig};

/// Schema tag of the only supported version.
const SCHEMA: &str = "fadr-snapshot/2";

/// Where a serialized packet sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Central queue of the node (class is the packet's `class` field);
    /// records restore in FIFO order.
    Queue(u32),
    /// Injection buffer of the node.
    Inj(u32),
    /// Output buffer by global buffer id.
    Out(u32),
    /// Input buffer by global buffer id.
    In(u32),
}

impl Loc {
    /// Every packet location of a network in the canonical snapshot
    /// order: central queues by node, injection buffers by node, then
    /// output and input buffers by ascending buffer id.
    pub(crate) fn all(nodes: usize, buffers: usize) -> impl Iterator<Item = Loc> {
        let (n, nb) = (nodes as u32, buffers as u32);
        (0..n)
            .map(Loc::Queue)
            .chain((0..n).map(Loc::Inj))
            .chain((0..nb).map(Loc::Out))
            .chain((0..nb).map(Loc::In))
    }
}

/// A fully parsed snapshot, ready to load into an engine.
#[derive(Debug)]
pub(crate) struct ParsedSnapshot<M> {
    pub(crate) meta: String,
    pub(crate) cfg: SimConfig,
    /// `(num_nodes, num_classes, num_buffers, num_channels)` the
    /// snapshot was taken against.
    pub(crate) dims: (usize, usize, usize, usize),
    pub(crate) cycle: u64,
    pub(crate) next_uid: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    pub(crate) minviol: u64,
    pub(crate) packets: Vec<(Loc, PacketInit<M>)>,
    pub(crate) chan_rr: Vec<u16>,
    /// Sparse flaky-link consecutive-down counters.
    pub(crate) fail: Vec<(u32, u32)>,
    pub(crate) stats: LatencyStats,
    pub(crate) occupancy: Option<OccupancyProbe>,
    pub(crate) throughput: Option<TimeSeries>,
    pub(crate) progress: RunProgress,
}

/// Everything the writer needs beyond the packets (the caller —
/// sequential engine or sharded driver — computes these; for a sharded
/// run they are the *merged* totals, which is what makes the output
/// byte-identical to the sequential engine's).
pub(crate) struct Globals<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) dims: (usize, usize, usize, usize),
    pub(crate) cycle: u64,
    pub(crate) next_uid: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    pub(crate) minviol: u64,
    pub(crate) chan_rr: Vec<u16>,
    pub(crate) fail: Vec<(u32, u32)>,
    pub(crate) stats: &'a LatencyStats,
    pub(crate) occupancy: Option<&'a OccupancyProbe>,
    pub(crate) throughput: Option<&'a TimeSeries>,
}

fn fill_order_code(f: FillOrder) -> u8 {
    match f {
        FillOrder::LowToHigh => 0,
        FillOrder::HighToLow => 1,
        FillOrder::Rotating => 2,
    }
}

fn fill_order_from(code: u64) -> Option<FillOrder> {
    match code {
        0 => Some(FillOrder::LowToHigh),
        1 => Some(FillOrder::HighToLow),
        2 => Some(FillOrder::Rotating),
        _ => None,
    }
}

/// Write `items` as a JSON array of numbers.
fn nums<T: fmt::Display>(out: &mut String, items: impl IntoIterator<Item = T>) -> fmt::Result {
    json::list(out, items, |out, v| write!(out, "{v}"));
    Ok(())
}

/// Write the snapshot document. `packets` yields every packet in the
/// canonical order of [`Loc::all`].
///
/// # Panics
///
/// Panics if `meta` holds a character [`Quoted`] escapes, which the
/// reader could not read back.
pub(crate) fn assemble<M: SnapshotMsg>(
    meta: &str,
    g: &Globals<'_>,
    packets: impl Iterator<Item = (Loc, PacketInit<M>)>,
    progress: &RunProgress,
) -> String {
    assert!(
        !meta.contains(|c: char| c == '"' || c == '\\' || c < ' '),
        "snapshot meta must need no JSON escape"
    );
    let (c, (n, nc, nb, nch)) = (g.cfg, g.dims);
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"schema\": {}, \"meta\": {}, \"cfg\": {{\"queue_capacity\": {}, \"seed\": {}, \
         \"max_cycles\": {}, \"fill_order\": {}, \"track_occupancy\": {}, \
         \"check_minimality\": {}, \"throughput_window\": {}}}, \"layout\": {{\"nodes\": {n}, \
         \"classes\": {nc}, \"buffers\": {nb}, \"channels\": {nch}}}, \"state\": {{\"cycle\": {}, \
         \"next_uid\": {}, \"delivered\": {}, \"dropped\": {}, \"minviol\": {}}}, \"packets\": ",
        Quoted(SCHEMA),
        Quoted(meta),
        c.queue_capacity,
        c.seed,
        c.max_cycles,
        fill_order_code(c.fill_order),
        u8::from(c.track_occupancy),
        u8::from(c.check_minimality),
        c.throughput_window,
        g.cycle,
        g.next_uid,
        g.delivered,
        g.dropped,
        g.minviol,
    );
    let mut words = Vec::new();
    json::list(&mut out, packets, |out, (loc, p)| {
        let (code, at) = match loc {
            Loc::Queue(v) => (0, v),
            Loc::Inj(v) => (1, v),
            Loc::Out(b) => (2, b),
            Loc::In(b) => (3, b),
        };
        words.clear();
        words.extend([
            code,
            at.into(),
            p.src.into(),
            p.dst.into(),
            p.uid,
            p.hops.into(),
            p.inject_cycle,
            p.enqueued_at,
            p.moved_at,
            p.class.into(),
            p.next_class.into(),
            p.escape.into(),
        ]);
        p.msg.encode(&mut words);
        nums(out, &words)
    });
    out.push_str(", \"chan_rr\": ");
    let _ = nums(&mut out, &g.chan_rr);
    out.push_str(", \"fail\": ");
    json::list(&mut out, &g.fail, |out, &(chan, count)| {
        nums(out, [chan, count])
    });
    let (s, hist) = (g.stats, g.stats.histogram());
    let _ = write!(out, ", \"stats\": {{\"count\": {}, \"sum\": ", s.count());
    let _ = nums(&mut out, [(s.sum() >> 64) as u64, s.sum() as u64]);
    for (key, v) in [("min", s.min_opt()), ("max", s.max_opt())] {
        if let Some(v) = v {
            let _ = write!(out, ", \"{key}\": {v}");
        }
    }
    let _ = write!(
        out,
        ", \"saturated\": {}, \"hist\": ",
        u8::from(hist.saturated())
    );
    json::list(&mut out, hist.iter(), |out, (v, count)| {
        nums(out, [v, count])
    });
    out.push('}');
    if let Some(occ) = g.occupancy {
        let _ = write!(
            out,
            ", \"occupancy\": {{\"samples\": {}, \"max\": ",
            occ.samples
        );
        let _ = nums(&mut out, &occ.max);
        out.push_str(", \"sum\": ");
        let _ = nums(&mut out, &occ.sum);
        out.push('}');
    }
    if let Some(ts) = g.throughput {
        let _ = write!(
            out,
            ", \"throughput\": {{\"window\": {}, \"saturated\": {}, \"sums\": ",
            ts.window(),
            u8::from(ts.saturated())
        );
        let _ = nums(&mut out, ts.windows().iter().map(|w| w.to_bits()));
        out.push('}');
    }
    match progress {
        RunProgress::Static { next_idx, lost } => {
            let _ = write!(
                out,
                ", \"progress\": {{\"kind\": \"static\", \"lost\": {lost}, \"next_idx\": "
            );
            let _ = nums(&mut out, next_idx);
            out.push('}');
        }
        RunProgress::Dynamic { attempts, injected } => {
            let _ = write!(
                out,
                ", \"progress\": {{\"kind\": \"dynamic\", \"attempts\": {attempts}, \"injected\": {injected}}}"
            );
        }
    }
    out.push_str("}\n");
    out
}

// --- Parsing ----------------------------------------------------------

/// The top-level keys, required unless optional (`occupancy`,
/// `throughput`).
const KEYS: [&str; 12] = [
    "schema",
    "meta",
    "cfg",
    "layout",
    "state",
    "packets",
    "chan_rr",
    "fail",
    "stats",
    "occupancy",
    "throughput",
    "progress",
];

/// `v` as a `T`; `what` names the field in a range error.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{what} {v} out of range"))
}

/// `v` as a flag: 0 or 1.
fn flag(v: u64, what: &str) -> Result<bool, String> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("{what} {v} is not 0 or 1")),
    }
}

/// Require that an object carried every key in `keys`.
fn require(seen: &Seen<'_>, keys: &[&str], what: &str) -> Result<(), String> {
    match keys.iter().find(|&&k| !seen.has(k)) {
        Some(k) => Err(format!("{what} missing {k:?}")),
        None => Ok(()),
    }
}

/// Read an array of numbers into `out`, replacing its contents.
fn words(r: &mut Reader<'_>, out: &mut Vec<u64>) -> Result<(), String> {
    out.clear();
    r.array(|r| {
        out.push(r.u64()?);
        Ok(())
    })
}

/// Read an array of numbers that each fit `T`.
fn nums_of<T: TryFrom<u64>>(r: &mut Reader<'_>, what: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    r.array(|r| {
        out.push(narrow(r.u64()?, what)?);
        Ok(())
    })?;
    Ok(out)
}

/// Read an array of `[a, b]` number pairs.
fn pairs(r: &mut Reader<'_>, what: &str) -> Result<Vec<(u64, u64)>, String> {
    let (mut out, mut pair) = (Vec::new(), Vec::new());
    r.array(|r| {
        words(r, &mut pair)?;
        let &[a, b] = &pair[..] else {
            return Err(format!("{what} entry is not a pair"));
        };
        out.push((a, b));
        Ok(())
    })?;
    Ok(out)
}

/// Read an object of numbers carrying every key in `keys`.
fn record<const N: usize>(
    r: &mut Reader<'_>,
    keys: &[&str; N],
    what: &str,
) -> Result<[u64; N], String> {
    let mut vals = [0; N];
    let seen = r.object(keys, |slot, r| {
        vals[slot] = r.u64()?;
        Ok(())
    })?;
    require(&seen, keys, what)?;
    Ok(vals)
}

/// Parse a full `fadr-snapshot/2` document.
pub(crate) fn parse<M: SnapshotMsg>(text: &str) -> Result<ParsedSnapshot<M>, String> {
    let mut snap = ParsedSnapshot {
        meta: String::new(),
        cfg: SimConfig::default(),
        dims: (0, 0, 0, 0),
        cycle: 0,
        next_uid: 0,
        delivered: 0,
        dropped: 0,
        minviol: 0,
        packets: Vec::new(),
        chan_rr: Vec::new(),
        fail: Vec::new(),
        stats: LatencyStats::new(),
        occupancy: None,
        throughput: None,
        progress: RunProgress::Dynamic {
            attempts: 0,
            injected: 0,
        },
    };
    let mut r = Reader::new(text);
    let mut scratch = Vec::new();
    let seen = r.object(&KEYS, |slot, r| {
        match slot {
            0 => {
                let s = r.str()?;
                if s != SCHEMA {
                    return Err(format!("unsupported schema {s:?} (want {SCHEMA})"));
                }
            }
            1 => snap.meta = r.str()?.to_string(),
            2 => snap.cfg = read_cfg(r)?,
            3 => {
                let [n, nc, nb, nch] =
                    record(r, &["nodes", "classes", "buffers", "channels"], "layout")?;
                snap.dims = (
                    narrow(n, "nodes")?,
                    narrow(nc, "classes")?,
                    narrow(nb, "buffers")?,
                    narrow(nch, "channels")?,
                );
            }
            4 => {
                let keys = ["cycle", "next_uid", "delivered", "dropped", "minviol"];
                [
                    snap.cycle,
                    snap.next_uid,
                    snap.delivered,
                    snap.dropped,
                    snap.minviol,
                ] = record(r, &keys, "state")?;
            }
            5 => r.array(|r| {
                words(r, &mut scratch)?;
                snap.packets.push(packet(&scratch)?);
                Ok(())
            })?,
            6 => snap.chan_rr = nums_of(r, "chan_rr value")?,
            7 => {
                for (chan, count) in pairs(r, "fail")? {
                    let chan = narrow(chan, "fail channel")?;
                    snap.fail.push((chan, narrow(count, "fail counter")?));
                }
            }
            8 => snap.stats = read_stats(r)?,
            9 => snap.occupancy = Some(read_occupancy(r)?),
            10 => snap.throughput = Some(read_throughput(r)?),
            _ => snap.progress = read_progress(r)?,
        }
        Ok(())
    })?;
    r.end()?;
    match KEYS
        .iter()
        .find(|&&k| !seen.has(k) && k != "occupancy" && k != "throughput")
    {
        Some(k) => Err(format!("snapshot missing {k:?}")),
        None => Ok(snap),
    }
}

/// The `meta` label of a `fadr-snapshot/2` document, read without an
/// engine: the whole document is parsed, message words undecoded.
pub fn meta(text: &str) -> Result<String, String> {
    parse::<Undecoded>(text).map(|s| s.meta)
}

/// A message that takes any words (see [`meta`]).
struct Undecoded;

impl SnapshotMsg for Undecoded {
    fn encode(&self, _: &mut Vec<u64>) {}

    fn decode(_: &[u64]) -> Option<Self> {
        Some(Self)
    }
}

fn read_cfg(r: &mut Reader<'_>) -> Result<SimConfig, String> {
    let keys = [
        "queue_capacity",
        "seed",
        "max_cycles",
        "fill_order",
        "track_occupancy",
        "check_minimality",
        "throughput_window",
    ];
    let [cap, seed, max_cycles, fill, occ, minim, throughput_window] = record(r, &keys, "cfg")?;
    Ok(SimConfig {
        queue_capacity: narrow(cap, "queue_capacity")?,
        seed,
        max_cycles,
        fill_order: fill_order_from(fill)
            .ok_or_else(|| format!("fill_order {fill} out of range"))?,
        track_occupancy: flag(occ, "track_occupancy")?,
        check_minimality: flag(minim, "check_minimality")?,
        throughput_window,
    })
}

/// Decode one packet array: the location code and its node or buffer,
/// the eleven [`PacketInit`] fields in order, the message words last.
fn packet<M: SnapshotMsg>(w: &[u64]) -> Result<(Loc, PacketInit<M>), String> {
    let &[code, at, src, dst, uid, hops, inject_cycle, enqueued_at, moved_at, class, next_class, escape, ref msg @ ..] =
        w
    else {
        return Err(format!("packet of {} numbers is too short", w.len()));
    };
    let at = narrow(at, "packet node or buffer")?;
    let loc = match code {
        0 => Loc::Queue(at),
        1 => Loc::Inj(at),
        2 => Loc::Out(at),
        3 => Loc::In(at),
        _ => return Err(format!("packet location code {code} out of range")),
    };
    let pkt = PacketInit {
        src: narrow(src, "packet src")?,
        dst: narrow(dst, "packet dst")?,
        uid,
        hops: narrow(hops, "packet hops")?,
        inject_cycle,
        enqueued_at,
        moved_at,
        class: narrow(class, "packet class")?,
        next_class: narrow(next_class, "packet next_class")?,
        escape: flag(escape, "packet escape")?,
        msg: M::decode(msg).ok_or_else(|| format!("packet {uid} has a bad msg encoding"))?,
    };
    Ok((loc, pkt))
}

fn read_stats(r: &mut Reader<'_>) -> Result<LatencyStats, String> {
    let keys = ["count", "sum", "min", "max", "saturated", "hist"];
    let (mut vals, mut sum, mut hist) = ([0; 6], Vec::new(), Vec::new());
    let seen = r.object(&keys, |slot, r| {
        match slot {
            1 => words(r, &mut sum)?,
            5 => hist = pairs(r, "stats hist")?,
            _ => vals[slot] = r.u64()?,
        }
        Ok(())
    })?;
    require(&seen, &["count", "sum", "saturated", "hist"], "stats")?;
    let &[high, low] = &sum[..] else {
        return Err("stats sum is not two words".into());
    };
    if let Some(&(v, _)) = hist.iter().find(|&&(v, _)| v > Histogram::OVERFLOW_CAP) {
        return Err(format!("stats hist latency {v} out of range"));
    }
    let [count, _, min, max, saturated, _] = vals;
    Ok(LatencyStats::from_raw(
        count,
        u128::from(high) << 64 | u128::from(low),
        seen.has("min").then_some(min),
        seen.has("max").then_some(max),
        Histogram::from_counts(hist, flag(saturated, "stats saturated")?),
    ))
}

fn read_occupancy(r: &mut Reader<'_>) -> Result<OccupancyProbe, String> {
    let keys = ["samples", "max", "sum"];
    let mut occ = OccupancyProbe::default();
    let seen = r.object(&keys, |slot, r| {
        match slot {
            0 => occ.samples = r.u64()?,
            1 => occ.max = nums_of(r, "occupancy max")?,
            _ => words(r, &mut occ.sum)?,
        }
        Ok(())
    })?;
    require(&seen, &keys, "occupancy")?;
    Ok(occ)
}

fn read_throughput(r: &mut Reader<'_>) -> Result<TimeSeries, String> {
    let keys = ["window", "saturated", "sums"];
    let (mut window, mut saturated, mut sums) = (0, 0, Vec::new());
    let seen = r.object(&keys, |slot, r| {
        match slot {
            0 => window = r.u64()?,
            1 => saturated = r.u64()?,
            _ => words(r, &mut sums)?,
        }
        Ok(())
    })?;
    require(&seen, &keys, "throughput")?;
    if window == 0 {
        return Err("zero throughput window".into());
    }
    if sums.len() > TimeSeries::MAX_WINDOWS {
        return Err("too many throughput windows".into());
    }
    let saturated = flag(saturated, "throughput saturated")?;
    let sums = sums.into_iter().map(f64::from_bits).collect();
    Ok(TimeSeries::from_raw(window, sums, saturated))
}

fn read_progress(r: &mut Reader<'_>) -> Result<RunProgress, String> {
    let keys = ["kind", "lost", "next_idx", "attempts", "injected"];
    let (mut kind, mut vals, mut next_idx) = ("", [0; 5], Vec::new());
    let seen = r.object(&keys, |slot, r| {
        match slot {
            0 => kind = r.str()?,
            2 => next_idx = nums_of(r, "next_idx value")?,
            _ => vals[slot] = r.u64()?,
        }
        Ok(())
    })?;
    require(&seen, &["kind"], "progress")?;
    let [_, lost, _, attempts, injected] = vals;
    let (takes, progress): (&[&str], _) = match kind {
        "static" => (
            &["kind", "lost", "next_idx"],
            RunProgress::Static { next_idx, lost },
        ),
        "dynamic" => (
            &["kind", "attempts", "injected"],
            RunProgress::Dynamic { attempts, injected },
        ),
        other => return Err(format!("unknown progress kind {other:?}")),
    };
    seen.exactly(takes, format_args!("{kind} progress"))?;
    Ok(progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny stand-in message: one word, value must be < 100.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct TestMsg(u64);

    impl SnapshotMsg for TestMsg {
        fn encode(&self, out: &mut Vec<u64>) {
            out.push(self.0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            match words {
                [v] if *v < 100 => Some(Self(*v)),
                _ => None,
            }
        }
    }

    /// Two windows, the first summing to 1.0 (bits 4607182418800017408).
    fn sample_series() -> TimeSeries {
        let mut ts = TimeSeries::new(10);
        ts.record(3, 1.0);
        ts.record(17, 0.1 + 0.2); // not exactly representable — bit fidelity matters
        ts
    }

    /// Write `snap` back out (what `checkpoint` writes for its state).
    fn assemble_parsed<M: SnapshotMsg + Clone>(snap: &ParsedSnapshot<M>) -> String {
        let g = Globals {
            cfg: &snap.cfg,
            dims: snap.dims,
            cycle: snap.cycle,
            next_uid: snap.next_uid,
            delivered: snap.delivered,
            dropped: snap.dropped,
            minviol: snap.minviol,
            chan_rr: snap.chan_rr.clone(),
            fail: snap.fail.clone(),
            stats: &snap.stats,
            occupancy: snap.occupancy.as_ref(),
            throughput: snap.throughput.as_ref(),
        };
        assemble(&snap.meta, &g, snap.packets.iter().cloned(), &snap.progress)
    }

    /// A snapshot carrying every record kind: one queued packet, a fail
    /// counter, latency stats, occupancy and a throughput series.
    fn sample_text() -> String {
        let mut stats = LatencyStats::new();
        stats.record(7);
        stats.record(11);
        let packet = PacketInit {
            src: 1,
            dst: 5,
            uid: 42,
            hops: 2,
            inject_cycle: 10,
            enqueued_at: 12,
            moved_at: u64::MAX,
            class: 1,
            next_class: 0,
            escape: false,
            msg: TestMsg(9),
        };
        let cfg = SimConfig {
            track_occupancy: true,
            throughput_window: 10,
            ..SimConfig::default()
        };
        let occupancy = OccupancyProbe {
            max: vec![0, 2],
            sum: vec![0, 5],
            samples: 13,
        };
        let ts = sample_series();
        let g = Globals {
            cfg: &cfg,
            dims: (8, 2, 64, 24),
            cycle: 13,
            next_uid: 43,
            delivered: 40,
            dropped: 1,
            minviol: 0,
            chan_rr: vec![0, 3, 1],
            fail: vec![(2, 1)],
            stats: &stats,
            occupancy: Some(&occupancy),
            throughput: Some(&ts),
        };
        let progress = RunProgress::Static {
            next_idx: vec![5, 5, 6],
            lost: 2,
        };
        assemble(
            "test snapshot",
            &g,
            [(Loc::Queue(3), packet)].into_iter(),
            &progress,
        )
    }

    #[test]
    fn round_trips_through_text() {
        let text = sample_text();
        assert_eq!(text.lines().count(), 1);
        let snap: ParsedSnapshot<TestMsg> = parse(&text).expect("parses");
        assert_eq!(snap.meta, "test snapshot");
        assert_eq!(meta(&text).unwrap(), "test snapshot");
        assert_eq!(snap.cycle, 13);
        assert_eq!(snap.next_uid, 43);
        assert_eq!(snap.dims, (8, 2, 64, 24));
        assert_eq!(snap.packets.len(), 1);
        let (loc, p) = &snap.packets[0];
        assert_eq!(*loc, Loc::Queue(3));
        assert_eq!(p.uid, 42);
        assert_eq!(p.moved_at, u64::MAX);
        assert_eq!(p.msg, TestMsg(9));
        assert_eq!(snap.chan_rr, vec![0, 3, 1]);
        assert_eq!(snap.fail, vec![(2, 1)]);
        assert_eq!(snap.stats.count(), 2);
        assert_eq!(snap.stats.min_opt(), Some(7));
        assert_eq!(snap.occupancy.as_ref().map(|o| o.samples), Some(13));
        assert_eq!(
            snap.progress,
            RunProgress::Static {
                next_idx: vec![5, 5, 6],
                lost: 2
            }
        );
        assert_eq!(assemble_parsed(&snap), text);
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let text = sample_text();
        // Drop the closing brace.
        let cut = text.trim_end().strip_suffix('}').unwrap();
        assert!(parse::<TestMsg>(cut).is_err());
        assert!(parse::<TestMsg>(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_msg_words_rejected() {
        let text = sample_text().replace(", 0, 9]]", ", 0, 999]]");
        let err = parse::<TestMsg>(&text).unwrap_err();
        assert!(err.contains("msg"), "unexpected error: {err}");
    }

    #[test]
    fn non_canonical_numbers_rejected() {
        let text = sample_text();
        let one = f64::to_bits(1.0).to_string();
        // (text before the number, the number, its replacement)
        for (before, from, to) in [
            ("\"cycle\": ", "13", "+13"),
            ("\"cycle\": ", "13", "013"),
            ("\"cycle\": ", "13", "18446744073709551616"),
            (", 0, 0, ", "9]]", "09]]"),
            ("\"sum\": [", "0", "+0"),
            ("\"min\": ", "7", "+7"),
            ("\"sums\": [", &one, &format!("+{one}")),
        ] {
            let key = format!("{before}{from}");
            let at = text
                .find(&key)
                .unwrap_or_else(|| panic!("sample has no {key:?}"));
            let bad = text.replacen(&key, &format!("{before}{to}"), 1);
            let err = parse::<TestMsg>(&bad).unwrap_err();
            let start = at + before.len();
            assert!(err.ends_with(&format!("at byte {start}")), "{to:?}: {err}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(parse::<TestMsg>("fadr-snapshot/9\n").is_err());
        let text = sample_text().replacen("fadr-snapshot/2", "fadr-snapshot/1", 1);
        let err = parse::<TestMsg>(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn range_errors_name_the_field() {
        let text = sample_text();
        for (from, to, field) in [
            (
                "[[0, 3, 1, 5, 42, 2,",
                "[[0, 3, 1, 5, 42, 65536,",
                "packet hops",
            ),
            ("\"chan_rr\": [0,", "\"chan_rr\": [65536,", "chan_rr value"),
            ("\"max\": [0,", "\"max\": [65536,", "occupancy max"),
            ("\"fail\": [[2,", "\"fail\": [[4294967296,", "fail channel"),
            (
                "\"track_occupancy\": 1",
                "\"track_occupancy\": 2",
                "track_occupancy",
            ),
        ] {
            assert!(text.contains(from), "sample has no {from:?}");
            let err = parse::<TestMsg>(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.starts_with(field), "{to:?}: {err}");
        }
    }

    #[test]
    fn throughput_sums_round_trip_bitwise() {
        let text = sample_text();
        let snap: ParsedSnapshot<TestMsg> = parse(&text).expect("parses");
        assert_eq!(snap.throughput.as_ref(), Some(&sample_series()));
    }

    /// The byte-mutation recipe of `crates/fuzz/tests/inputs.rs` on a
    /// snapshot: delete each byte, and replace it with each of a few
    /// structural characters, a digit and a letter. Parsing never
    /// panics; an accepted document writes back to text that parses and
    /// writes back to the same bytes; and deleting a `,` or `:` outside
    /// a string is always an error.
    #[test]
    fn byte_mutations_are_rejected_or_round_trip() {
        let text = sample_text();
        let mut in_string = false;
        let mut accepted = 0;
        for (i, &b) in text.as_bytes().iter().enumerate() {
            let mut deleted = text.as_bytes().to_vec();
            deleted.remove(i);
            let mut mutants = vec![deleted];
            for &to in b",:\"}]0x" {
                let mut m = text.as_bytes().to_vec();
                m[i] = to;
                mutants.push(m);
            }
            for (k, m) in mutants.iter().enumerate() {
                let m = std::str::from_utf8(m).expect("ASCII sample");
                let Ok(snap) = parse::<TestMsg>(m) else {
                    continue;
                };
                assert!(
                    k > 0 || in_string || (b != b',' && b != b':'),
                    "deleting byte {i} ({:?}) was accepted",
                    char::from(b)
                );
                accepted += 1;
                let once = assemble_parsed(&snap);
                let again = parse::<TestMsg>(&once)
                    .unwrap_or_else(|e| panic!("mutant {m:?} wrote back unreadable: {e}"));
                assert_eq!(assemble_parsed(&again), once, "mutant {m:?}");
            }
            in_string ^= b == b'"';
        }
        assert!(accepted > 0, "no mutant parsed");
    }
}
