//! The `fadr-snapshot/1` checkpoint format: a line-oriented ASCII
//! serialization of the complete engine state at a pause point.
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
//! One record per line, space-separated decimal fields:
//!
//! ```text
//! fadr-snapshot/1
//! meta <free-form single-line label>
//! cfg <capacity> <seed> <max_cycles> <fill_order> <track_occ> <check_min> <tw>
//! layout <num_nodes> <num_classes> <num_buffers> <num_channels>
//! state <cycle> <next_uid> <delivered> <dropped> <minviol>
//! packets <count>
//! p <loc> <arg> <src> <dst> <uid> <hops> <inject> <enq> <moved> <class> <next_class> <esc> <msg words…>
//! chan_rr <count> <values…>
//! fail <count> [<chan> <count>]…
//! stats <count> <sum> <min|-> <max|-> <saturated> <npairs> [<latency> <count>]…
//! occupancy <samples> <nqueues> <max…> <sum…>        (only when tracked)
//! throughput <window> <saturated> <nwindows> <f64-bits-hex…>   (optional)
//! progress static <lost> <n> <next_idx…>
//! progress dynamic <attempts> <injected>
//! end
//! ```
//!
//! Packet `<loc>` is `q` (central queue of node `arg`, lines in FIFO
//! order), `i` (injection buffer of node `arg`), `o`/`n` (output/input
//! buffer `arg`). Packet lines appear in a canonical order — all queued
//! packets by node, then injection buffers by node, then output and
//! input buffers by ascending buffer id — so a sharded checkpoint
//! (assembled piecewise from the owning shards) is **byte-identical**
//! to the sequential engine's at the same cycle. Message routing state
//! is encoded via [`fadr_qdg::SnapshotMsg`] words.
//!
//! The parser validates lengths and field ranges and fails loudly on
//! mismatch: resuming from a corrupted snapshot must not silently turn
//! into a different run. Every number follows the JSON reader's rule
//! (`fadr_metrics::json::Reader::u64`): digits only, no sign, no
//! leading zero, no overflow, and an error that names the line.

use fadr_metrics::{Histogram, LatencyStats, TimeSeries};
use fadr_qdg::SnapshotMsg;

use crate::engine::{OccupancyProbe, RunProgress};
use crate::{FillOrder, SimConfig};

/// Format magic of the only supported version.
pub(crate) const MAGIC: &str = "fadr-snapshot/1";

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

/// One in-flight packet, location plus full per-packet state.
#[derive(Debug, Clone)]
pub(crate) struct PacketRec<M> {
    pub(crate) loc: Loc,
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
    pub(crate) packets: Vec<PacketRec<M>>,
    pub(crate) chan_rr: Vec<u16>,
    /// Sparse flaky-link consecutive-down counters.
    pub(crate) fail: Vec<(u32, u32)>,
    pub(crate) stats: LatencyStats,
    pub(crate) occupancy: Option<OccupancyProbe>,
    pub(crate) throughput: Option<TimeSeries>,
    pub(crate) progress: RunProgress,
}

/// Everything the writer needs beyond the packet lines (the caller —
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

/// Assemble the full snapshot text around pre-rendered packet lines.
pub(crate) fn assemble(
    meta: &str,
    g: &Globals<'_>,
    packet_count: usize,
    packet_lines: &str,
    progress: &RunProgress,
) -> String {
    assert!(!meta.contains('\n'), "snapshot meta must be a single line");
    let mut out = String::with_capacity(packet_lines.len() + 1024);
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("meta {meta}\n"));
    let c = g.cfg;
    out.push_str(&format!(
        "cfg {} {} {} {} {} {} {}\n",
        c.queue_capacity,
        c.seed,
        c.max_cycles,
        fill_order_code(c.fill_order),
        u8::from(c.track_occupancy),
        u8::from(c.check_minimality),
        c.throughput_window,
    ));
    let (n, nc, nb, nch) = g.dims;
    out.push_str(&format!("layout {n} {nc} {nb} {nch}\n"));
    out.push_str(&format!(
        "state {} {} {} {} {}\n",
        g.cycle, g.next_uid, g.delivered, g.dropped, g.minviol
    ));
    out.push_str(&format!("packets {packet_count}\n"));
    out.push_str(packet_lines);
    out.push_str(&format!("chan_rr {}", g.chan_rr.len()));
    for &v in &g.chan_rr {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
    out.push_str(&format!("fail {}", g.fail.len()));
    for &(chan, cnt) in &g.fail {
        out.push_str(&format!(" {chan} {cnt}"));
    }
    out.push('\n');
    write_stats(&mut out, g.stats);
    if let Some(occ) = g.occupancy {
        out.push_str(&format!("occupancy {} {}", occ.samples, occ.max.len()));
        for &m in &occ.max {
            out.push_str(&format!(" {m}"));
        }
        for &s in &occ.sum {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
    }
    if let Some(ts) = g.throughput {
        out.push_str(&format!(
            "throughput {} {} {}",
            ts.window(),
            u8::from(ts.saturated()),
            ts.windows().len()
        ));
        for &w in ts.windows() {
            out.push_str(&format!(" {:x}", w.to_bits()));
        }
        out.push('\n');
    }
    match progress {
        RunProgress::Static { next_idx, lost } => {
            out.push_str(&format!("progress static {lost} {}", next_idx.len()));
            for &i in next_idx {
                out.push_str(&format!(" {i}"));
            }
            out.push('\n');
        }
        RunProgress::Dynamic { attempts, injected } => {
            out.push_str(&format!("progress dynamic {attempts} {injected}\n"));
        }
    }
    out.push_str("end\n");
    out
}

fn write_stats(out: &mut String, stats: &LatencyStats) {
    let hist = stats.histogram();
    let pairs: Vec<(u64, u64)> = hist.iter().collect();
    out.push_str(&format!(
        "stats {} {} {} {} {} {}",
        stats.count(),
        stats.sum(),
        stats
            .min_opt()
            .map_or_else(|| "-".to_string(), |v| v.to_string()),
        stats
            .max_opt()
            .map_or_else(|| "-".to_string(), |v| v.to_string()),
        u8::from(hist.saturated()),
        pairs.len(),
    ));
    for (v, c) in pairs {
        out.push_str(&format!(" {v} {c}"));
    }
    out.push('\n');
}

/// Render one packet line (shared by both engines so their bytes agree).
pub(crate) fn push_packet_line<M: SnapshotMsg>(out: &mut String, r: &PacketRec<M>) {
    let (loc, arg) = match r.loc {
        Loc::Queue(v) => ('q', v),
        Loc::Inj(v) => ('i', v),
        Loc::Out(b) => ('o', b),
        Loc::In(b) => ('n', b),
    };
    out.push_str(&format!(
        "p {loc} {arg} {} {} {} {} {} {} {} {} {} {}",
        r.src,
        r.dst,
        r.uid,
        r.hops,
        r.inject_cycle,
        r.enqueued_at,
        r.moved_at,
        r.class,
        r.next_class,
        u8::from(r.escape),
    ));
    let mut words = Vec::new();
    r.msg.encode(&mut words);
    for w in words {
        out.push_str(&format!(" {w}"));
    }
    out.push('\n');
}

// --- Parsing ----------------------------------------------------------

struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<&'a str, String> {
        self.lineno += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("snapshot truncated at line {}", self.lineno))
    }

    fn err(&self, msg: &str) -> String {
        format!("snapshot line {}: {}", self.lineno, msg)
    }
}

/// Whether `tok` is a number by the JSON reader's rule
/// (`fadr_metrics::json::Reader::u64`) over the given digits: at least
/// one digit, nothing else (no sign), and no leading zero.
fn canonical(tok: &str, digit: fn(&u8) -> bool) -> bool {
    let b = tok.as_bytes();
    !b.is_empty() && b.iter().all(digit) && (b[0] != b'0' || b.len() == 1)
}

/// A canonical decimal token that fits `T`.
fn decimal<T: std::str::FromStr>(tok: &str) -> Option<T> {
    canonical(tok, u8::is_ascii_digit)
        .then(|| tok.parse().ok())
        .flatten()
}

fn parse_u64(tok: Option<&str>, cur: &Cursor<'_>, what: &str) -> Result<u64, String> {
    decimal(tok.ok_or_else(|| cur.err(&format!("missing {what}")))?)
        .ok_or_else(|| cur.err(&format!("bad {what}")))
}

fn parse_usize(tok: Option<&str>, cur: &Cursor<'_>, what: &str) -> Result<usize, String> {
    usize::try_from(parse_u64(tok, cur, what)?).map_err(|_| cur.err(&format!("bad {what}")))
}

fn parse_flag(tok: Option<&str>, cur: &Cursor<'_>, what: &str) -> Result<bool, String> {
    match parse_u64(tok, cur, what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(cur.err(&format!("bad {what}"))),
    }
}

/// Expect `line` to start with `keyword` and return its remaining tokens.
fn fields<'a>(
    line: &'a str,
    keyword: &str,
    cur: &Cursor<'_>,
) -> Result<std::str::SplitWhitespace<'a>, String> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some(keyword) {
        return Err(cur.err(&format!("expected `{keyword}` record")));
    }
    Ok(toks)
}

/// Parse a full `fadr-snapshot/1` document.
#[allow(clippy::too_many_lines)]
pub(crate) fn parse<M: SnapshotMsg>(text: &str) -> Result<ParsedSnapshot<M>, String> {
    let mut cur = Cursor {
        lines: text.lines(),
        lineno: 0,
    };
    if cur.next()? != MAGIC {
        return Err(format!("not a {MAGIC} snapshot"));
    }

    let meta_line = cur.next()?;
    let meta = meta_line
        .strip_prefix("meta")
        .ok_or_else(|| cur.err("expected `meta` record"))?
        .trim_start()
        .to_string();

    let line = cur.next()?;
    let mut t = fields(line, "cfg", &cur)?;
    let cfg = SimConfig {
        queue_capacity: parse_usize(t.next(), &cur, "queue capacity")?,
        seed: parse_u64(t.next(), &cur, "seed")?,
        max_cycles: parse_u64(t.next(), &cur, "max cycles")?,
        fill_order: fill_order_from(parse_u64(t.next(), &cur, "fill order")?)
            .ok_or_else(|| cur.err("bad fill order"))?,
        track_occupancy: parse_flag(t.next(), &cur, "track_occupancy")?,
        check_minimality: parse_flag(t.next(), &cur, "check_minimality")?,
        throughput_window: parse_u64(t.next(), &cur, "throughput window")?,
    };

    let line = cur.next()?;
    let mut t = fields(line, "layout", &cur)?;
    let dims = (
        parse_usize(t.next(), &cur, "num nodes")?,
        parse_usize(t.next(), &cur, "num classes")?,
        parse_usize(t.next(), &cur, "num buffers")?,
        parse_usize(t.next(), &cur, "num channels")?,
    );

    let line = cur.next()?;
    let mut t = fields(line, "state", &cur)?;
    let cycle = parse_u64(t.next(), &cur, "cycle")?;
    let next_uid = parse_u64(t.next(), &cur, "next uid")?;
    let delivered = parse_u64(t.next(), &cur, "delivered")?;
    let dropped = parse_u64(t.next(), &cur, "dropped")?;
    let minviol = parse_u64(t.next(), &cur, "minimality violations")?;

    let line = cur.next()?;
    let mut t = fields(line, "packets", &cur)?;
    let n_packets = parse_usize(t.next(), &cur, "packet count")?;
    let mut packets = Vec::with_capacity(n_packets);
    for _ in 0..n_packets {
        let line = cur.next()?;
        packets.push(parse_packet(line, &cur)?);
    }

    let line = cur.next()?;
    let mut t = fields(line, "chan_rr", &cur)?;
    let n_rr = parse_usize(t.next(), &cur, "chan_rr count")?;
    let mut chan_rr = Vec::with_capacity(n_rr);
    for _ in 0..n_rr {
        let v = parse_u64(t.next(), &cur, "chan_rr value")?;
        chan_rr.push(u16::try_from(v).map_err(|_| cur.err("chan_rr value overflows u16"))?);
    }

    let line = cur.next()?;
    let mut t = fields(line, "fail", &cur)?;
    let n_fail = parse_usize(t.next(), &cur, "fail count")?;
    let mut fail = Vec::with_capacity(n_fail);
    for _ in 0..n_fail {
        let chan = parse_u64(t.next(), &cur, "fail channel")?;
        let cnt = parse_u64(t.next(), &cur, "fail counter")?;
        fail.push((
            u32::try_from(chan).map_err(|_| cur.err("fail channel overflows u32"))?,
            u32::try_from(cnt).map_err(|_| cur.err("fail counter overflows u32"))?,
        ));
    }

    let line = cur.next()?;
    let stats = parse_stats(line, &cur)?;

    let mut line = cur.next()?;
    let mut occupancy = None;
    if line.starts_with("occupancy ") {
        occupancy = Some(parse_occupancy(line, &cur)?);
        line = cur.next()?;
    }
    let mut throughput = None;
    if line.starts_with("throughput ") {
        throughput = Some(parse_throughput(line, &cur)?);
        line = cur.next()?;
    }

    let mut t = fields(line, "progress", &cur)?;
    let progress = match t.next() {
        Some("static") => {
            let lost = parse_u64(t.next(), &cur, "lost")?;
            let n = parse_usize(t.next(), &cur, "next_idx count")?;
            let mut next_idx = Vec::with_capacity(n);
            for _ in 0..n {
                next_idx.push(parse_usize(t.next(), &cur, "next_idx value")?);
            }
            RunProgress::Static { next_idx, lost }
        }
        Some("dynamic") => RunProgress::Dynamic {
            attempts: parse_u64(t.next(), &cur, "attempts")?,
            injected: parse_u64(t.next(), &cur, "injected")?,
        },
        _ => return Err(cur.err("bad progress kind")),
    };

    if cur.next()? != "end" {
        return Err(cur.err("expected `end` record"));
    }

    Ok(ParsedSnapshot {
        meta,
        cfg,
        dims,
        cycle,
        next_uid,
        delivered,
        dropped,
        minviol,
        packets,
        chan_rr,
        fail,
        stats,
        occupancy,
        throughput,
        progress,
    })
}

fn parse_packet<M: SnapshotMsg>(line: &str, cur: &Cursor<'_>) -> Result<PacketRec<M>, String> {
    let mut t = fields(line, "p", cur)?;
    let loc_tok = t.next().ok_or_else(|| cur.err("missing packet loc"))?;
    let arg = parse_u64(t.next(), cur, "packet loc arg")?;
    let arg = u32::try_from(arg).map_err(|_| cur.err("packet loc arg overflows u32"))?;
    let loc = match loc_tok {
        "q" => Loc::Queue(arg),
        "i" => Loc::Inj(arg),
        "o" => Loc::Out(arg),
        "n" => Loc::In(arg),
        _ => return Err(cur.err("bad packet loc")),
    };
    let src = parse_u64(t.next(), cur, "src")?;
    let dst = parse_u64(t.next(), cur, "dst")?;
    let uid = parse_u64(t.next(), cur, "uid")?;
    let hops = parse_u64(t.next(), cur, "hops")?;
    let inject_cycle = parse_u64(t.next(), cur, "inject cycle")?;
    let enqueued_at = parse_u64(t.next(), cur, "enqueued_at")?;
    let moved_at = parse_u64(t.next(), cur, "moved_at")?;
    let class = parse_u64(t.next(), cur, "class")?;
    let next_class = parse_u64(t.next(), cur, "next class")?;
    let escape = parse_flag(t.next(), cur, "escape flag")?;
    let words: Vec<u64> = t
        .map(|w| decimal(w).ok_or_else(|| cur.err("bad msg word")))
        .collect::<Result<_, _>>()?;
    let msg = M::decode(&words).ok_or_else(|| cur.err("bad msg encoding"))?;
    Ok(PacketRec {
        loc,
        src: u32::try_from(src).map_err(|_| cur.err("src overflows u32"))?,
        dst: u32::try_from(dst).map_err(|_| cur.err("dst overflows u32"))?,
        uid,
        hops: u16::try_from(hops).map_err(|_| cur.err("hops overflows u16"))?,
        inject_cycle,
        enqueued_at,
        moved_at,
        class: u8::try_from(class).map_err(|_| cur.err("class overflows u8"))?,
        next_class: u8::try_from(next_class).map_err(|_| cur.err("next class overflows u8"))?,
        escape,
        msg,
    })
}

fn parse_stats(line: &str, cur: &Cursor<'_>) -> Result<LatencyStats, String> {
    let mut t = fields(line, "stats", cur)?;
    let count = parse_u64(t.next(), cur, "stats count")?;
    let sum = decimal::<u128>(t.next().ok_or_else(|| cur.err("missing stats sum"))?)
        .ok_or_else(|| cur.err("bad stats sum"))?;
    let parse_opt = |tok: Option<&str>, what: &str| -> Result<Option<u64>, String> {
        match tok {
            Some("-") => Ok(None),
            tok => parse_u64(tok, cur, what).map(Some),
        }
    };
    let min = parse_opt(t.next(), "stats min")?;
    let max = parse_opt(t.next(), "stats max")?;
    let saturated = parse_flag(t.next(), cur, "stats saturation flag")?;
    let npairs = parse_usize(t.next(), cur, "stats pair count")?;
    let mut pairs = Vec::with_capacity(npairs);
    for _ in 0..npairs {
        let v = parse_u64(t.next(), cur, "stats latency")?;
        let c = parse_u64(t.next(), cur, "stats latency count")?;
        pairs.push((v, c));
    }
    Ok(LatencyStats::from_raw(
        count,
        sum,
        min,
        max,
        Histogram::from_counts(pairs, saturated),
    ))
}

fn parse_occupancy(line: &str, cur: &Cursor<'_>) -> Result<OccupancyProbe, String> {
    let mut t = fields(line, "occupancy", cur)?;
    let samples = parse_u64(t.next(), cur, "occupancy samples")?;
    let n = parse_usize(t.next(), cur, "occupancy queue count")?;
    let mut max = Vec::with_capacity(n);
    for _ in 0..n {
        let v = parse_u64(t.next(), cur, "occupancy max")?;
        max.push(u16::try_from(v).map_err(|_| cur.err("occupancy max overflows u16"))?);
    }
    let mut sum = Vec::with_capacity(n);
    for _ in 0..n {
        sum.push(parse_u64(t.next(), cur, "occupancy sum")?);
    }
    Ok(OccupancyProbe { max, sum, samples })
}

fn parse_throughput(line: &str, cur: &Cursor<'_>) -> Result<TimeSeries, String> {
    let mut t = fields(line, "throughput", cur)?;
    let window = parse_u64(t.next(), cur, "throughput window")?;
    if window == 0 {
        return Err(cur.err("zero throughput window"));
    }
    let saturated = parse_flag(t.next(), cur, "throughput saturation flag")?;
    let n = parse_usize(t.next(), cur, "throughput window count")?;
    if n > TimeSeries::MAX_WINDOWS {
        return Err(cur.err("too many throughput windows"));
    }
    let mut sums = Vec::with_capacity(n);
    for _ in 0..n {
        let tok = t.next().ok_or_else(|| cur.err("missing throughput sum"))?;
        let bits = canonical(tok, |b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
            .then(|| u64::from_str_radix(tok, 16).ok())
            .flatten()
            .ok_or_else(|| cur.err("bad throughput sum"))?;
        sums.push(f64::from_bits(bits));
    }
    Ok(TimeSeries::from_raw(window, sums, saturated))
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

    fn sample_text() -> String {
        let mut stats = LatencyStats::new();
        stats.record(7);
        stats.record(11);
        let mut pkts = String::new();
        push_packet_line(
            &mut pkts,
            &PacketRec {
                loc: Loc::Queue(3),
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
            },
        );
        let cfg = SimConfig::default();
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
            occupancy: None,
            throughput: None,
        };
        assemble(
            "test snapshot",
            &g,
            1,
            &pkts,
            &RunProgress::Static {
                next_idx: vec![5, 5, 6],
                lost: 2,
            },
        )
    }

    #[test]
    fn round_trips_through_text() {
        let text = sample_text();
        let snap: ParsedSnapshot<TestMsg> = parse(&text).expect("parses");
        assert_eq!(snap.meta, "test snapshot");
        assert_eq!(snap.cycle, 13);
        assert_eq!(snap.next_uid, 43);
        assert_eq!(snap.dims, (8, 2, 64, 24));
        assert_eq!(snap.packets.len(), 1);
        let p = &snap.packets[0];
        assert_eq!(p.loc, Loc::Queue(3));
        assert_eq!(p.uid, 42);
        assert_eq!(p.moved_at, u64::MAX);
        assert_eq!(p.msg, TestMsg(9));
        assert_eq!(snap.chan_rr, vec![0, 3, 1]);
        assert_eq!(snap.fail, vec![(2, 1)]);
        assert_eq!(snap.stats.count(), 2);
        assert_eq!(snap.stats.min_opt(), Some(7));
        assert_eq!(
            snap.progress,
            RunProgress::Static {
                next_idx: vec![5, 5, 6],
                lost: 2
            }
        );
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let text = sample_text();
        // Drop the trailing `end` line.
        let cut = text.rsplit_once("end\n").unwrap().0;
        assert!(parse::<TestMsg>(cut).is_err());
    }

    #[test]
    fn corrupt_msg_words_rejected() {
        let text = sample_text().replace(" 9\n", " 999\n");
        let err = parse::<TestMsg>(&text).unwrap_err();
        assert!(err.contains("msg"), "unexpected error: {err}");
    }

    #[test]
    fn non_canonical_numbers_rejected() {
        let text = sample_text();
        for (from, to) in [
            ("state 13 ", "state +13 "),
            ("state 13 ", "state 013 "),
            ("state 13 ", "state 18446744073709551616 "),
            (" 9\n", " 09\n"),
            ("stats 2 18 ", "stats 2 +18 "),
            ("stats 2 18 7 ", "stats 2 18 +7 "),
        ] {
            assert!(text.contains(from), "sample has no {from:?}");
            let err = parse::<TestMsg>(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.starts_with("snapshot line "), "{to:?}: {err}");
        }
        // Throughput sums are lowercase hex without a sign, as written.
        let text = throughput_text(&sample_series());
        let sum = " 3ff0000000000000 ";
        assert!(text.contains(sum), "series has no {sum:?}");
        for to in [" +3ff0000000000000 ", " 3FF0000000000000 "] {
            let err = parse::<TestMsg>(&text.replacen(sum, to, 1)).unwrap_err();
            assert!(err.starts_with("snapshot line "), "{to:?}: {err}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(parse::<TestMsg>("fadr-snapshot/9\n").is_err());
    }

    /// A snapshot carrying the throughput series `ts`.
    fn throughput_text(ts: &TimeSeries) -> String {
        let stats = LatencyStats::new();
        let cfg = SimConfig {
            throughput_window: 10,
            ..SimConfig::default()
        };
        let g = Globals {
            cfg: &cfg,
            dims: (2, 1, 4, 2),
            cycle: 20,
            next_uid: 0,
            delivered: 0,
            dropped: 0,
            minviol: 0,
            chan_rr: vec![0, 0],
            fail: vec![],
            stats: &stats,
            occupancy: None,
            throughput: Some(ts),
        };
        assemble(
            "ts",
            &g,
            0,
            "",
            &RunProgress::Dynamic {
                attempts: 5,
                injected: 4,
            },
        )
    }

    /// Two windows, the first summing to 1.0 (bits `3ff0000000000000`).
    fn sample_series() -> TimeSeries {
        let mut ts = TimeSeries::new(10);
        ts.record(3, 1.0);
        ts.record(17, 0.1 + 0.2); // not exactly representable — bit fidelity matters
        ts
    }

    #[test]
    fn throughput_sums_round_trip_bitwise() {
        let ts = sample_series();
        let text = throughput_text(&ts);
        let snap: ParsedSnapshot<TestMsg> = parse(&text).expect("parses");
        assert_eq!(snap.throughput.as_ref(), Some(&ts));
        assert_eq!(
            snap.progress,
            RunProgress::Dynamic {
                attempts: 5,
                injected: 4
            }
        );
    }
}
