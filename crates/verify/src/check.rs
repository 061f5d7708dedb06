//! Independent certificate validation.
//!
//! [`check_certificate`] is the trusted core of the certifier: it
//! deliberately shares **no** code with the constructor — no `Digraph`,
//! no SCC/Kahn machinery, no class-graph builder. It re-explores the
//! scheme with its own interning loop and verifies the certificate's
//! rank function directly: every static non-stutter transition must map
//! a class to a strictly higher-ranked class, every non-delivered state
//! must keep a static continuation, hops must follow the topology, and
//! delivery must happen at the destination. Checking a rank function is
//! far simpler than computing one, which is what keeps this component
//! small enough to audit (the § 2 argument then rests on it alone).
//!
//! The one thing it shares with the constructor is the hasher type of
//! its maps (`fadr_qdg::hasher`). The maps and the transition buffer
//! are cleared, not rebuilt, between destinations.

use fadr_qdg::hasher::FxHashMap;
use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::{HopKind, LinkKind, QueueId, QueueKind, Transition};

use crate::certificate::{Certificate, ClassifierMode};

/// Validate `cert` against `rf` from scratch. Returns the first defect
/// found, as text; `Ok(())` means every claim was re-derived.
pub fn check_certificate<R: Symmetry + ?Sized>(rf: &R, cert: &Certificate) -> Result<(), String> {
    let topo = rf.topology();
    let n = topo.num_nodes();
    if cert.nodes != n {
        return Err(format!(
            "certificate is for {} nodes, scheme has {n}",
            cert.nodes
        ));
    }
    if cert.algorithm != rf.name() {
        return Err(format!(
            "certificate names '{}', scheme is '{}'",
            cert.algorithm,
            rf.name()
        ));
    }
    let mut rank: FxHashMap<QueueClass, u64> = FxHashMap::default();
    for &(c, r) in &cert.ranks {
        if rank.insert(c, r).is_some() {
            return Err(format!("duplicate rank entry for class {c}"));
        }
    }
    let concrete = matches!(cert.classifier, ClassifierMode::Concrete);
    let class_of = |q: QueueId| {
        if concrete {
            QueueClass::concrete(q)
        } else {
            rf.queue_class(q)
        }
    };
    let dsts: Vec<usize> = if concrete || cert.all_dsts {
        (0..n).collect()
    } else {
        let reps = rf.dst_representatives();
        if cert.dsts != reps {
            return Err(
                "certificate's representative destinations differ from the scheme's".into(),
            );
        }
        reps
    };
    let mut index: FxHashMap<(QueueId, R::Msg), usize> = FxHashMap::default();
    let mut states: Vec<(QueueId, R::Msg)> = Vec::new();
    let mut stutter: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    let mut color: FxHashMap<usize, u8> = FxHashMap::default();
    let mut ts: Vec<Transition<R::Msg>> = Vec::new();
    for &dst in &dsts {
        index.clear();
        states.clear();
        stutter.clear();
        for src in 0..n {
            if src == dst {
                continue;
            }
            let key = (QueueId::inject(src), rf.initial_msg(src, dst));
            index.entry(key).or_insert_with_key(|key| {
                states.push(key.clone());
                states.len() - 1
            });
        }
        let mut i = 0usize;
        while i < states.len() {
            let (q, msg) = states[i].clone();
            let cur = i;
            i += 1;
            if q.kind == QueueKind::Deliver {
                if q.node != dst {
                    return Err(format!(
                        "delivered at wrong node: {} instead of {dst}",
                        q.node
                    ));
                }
                continue;
            }
            ts.clear();
            rf.for_each_transition(q, &msg, &mut |t| ts.push(t));
            if ts.is_empty() {
                return Err(format!("dead end at {q} for {msg:?} (dst={dst})"));
            }
            let a = class_of(q);
            let ra = rank.get(&a).copied();
            let mut has_static = false;
            for t in &ts {
                let hop_ok = match t.hop {
                    HopKind::Internal => t.to.node == q.node,
                    HopKind::Link(p) => topo.neighbor(q.node, p) == Some(t.to.node),
                };
                if !hop_ok {
                    return Err(format!("hop does not follow the topology: {q} -> {}", t.to));
                }
                let j = *index
                    .entry((t.to, t.msg.clone()))
                    .or_insert_with_key(|key| {
                        states.push(key.clone());
                        states.len() - 1
                    });
                if t.kind != LinkKind::Static {
                    continue;
                }
                has_static = true;
                if t.to == q {
                    stutter.entry(cur).or_default().push(j);
                    continue;
                }
                let b = class_of(t.to);
                let (Some(ra), Some(&rb)) = (ra, rank.get(&b)) else {
                    return Err(format!(
                        "transition {q} -> {} touches an unranked class",
                        t.to
                    ));
                };
                if ra >= rb {
                    return Err(format!(
                        "rank does not increase on static transition {q} ({a}, rank {ra}) -> {} ({b}, rank {rb})",
                        t.to
                    ));
                }
            }
            if !has_static {
                return Err(format!(
                    "no static continuation at {q} for {msg:?} (dst={dst})"
                ));
            }
        }
        // Stutter transitions are rank-neutral by construction; a cycle
        // among them is a real § 2 violation the ranks cannot see.
        if let Some(s) = stutter_cycle(&stutter, &mut color) {
            return Err(format!(
                "static stutter cycle at {} (dst={dst})",
                states[s].0
            ));
        }
    }
    Ok(())
}

/// Three-color DFS over the sparse stutter adjacency of one destination
/// (`color` is scratch, cleared here).
fn stutter_cycle(
    adj: &FxHashMap<usize, Vec<usize>>,
    color: &mut FxHashMap<usize, u8>,
) -> Option<usize> {
    let mut roots: Vec<usize> = adj.keys().copied().collect();
    roots.sort_unstable();
    color.clear();
    for &start in &roots {
        if color.contains_key(&start) {
            continue;
        }
        color.insert(start, 1);
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = stack.last_mut() {
            let v = frame.0;
            let next = adj.get(&v).and_then(|s| s.get(frame.1).copied());
            frame.1 += 1;
            match next {
                Some(w) => match color.get(&w).copied() {
                    Some(1) => return Some(w),
                    Some(_) => {}
                    None => {
                        color.insert(w, 1);
                        stack.push((w, 0));
                    }
                },
                None => {
                    color.insert(v, 2);
                    stack.pop();
                }
            }
        }
    }
    None
}
