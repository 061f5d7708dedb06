//! Result and trace documents, the printed tables, and `compare`.

use std::fmt::Write as _;

use crate::golden::Checks;
use crate::json::Json;
use crate::layers::{layer_better, Traced};
use crate::stats::{compare, Summary};
use crate::trace::layer_table;
use crate::workloads::NAMES;
use crate::{metric, Measured, END_TO_END, GATED};

/// Schema of result and trace documents.
pub const SCHEMA: &str = "fadr-benchmark/1";

/// A summary as JSON; non-finite numbers are written as `null`.
fn summary_json(s: Option<Summary>, samples: &[f64]) -> Json {
    match s {
        None => Json::obj().with("value", Json::Null),
        Some(s) => Json::obj()
            .with("value", s.median)
            .with("q1", s.q1)
            .with("q3", s.q3)
            .with("max", s.max)
            .with("n", s.n)
            .with(
                "samples",
                Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
            ),
    }
}

/// One measured workload's entry in a result document.
pub fn workload_json(m: &Measured) -> Json {
    let mut metrics = Json::obj();
    for def in &END_TO_END {
        let s = m.summary(def.name);
        if s.is_none() && def.name != "peak_rss_mb" {
            continue;
        }
        let entry = summary_json(s, m.samples(def.name))
            .with("unit", def.unit)
            .with("better", def.better.as_str())
            .with("bound", def.bound);
        metrics = metrics.with(def.name, entry);
    }
    let errors = Json::Obj(
        m.paper_errors
            .iter()
            .map(|(label, e)| (label.clone(), Json::Num(*e)))
            .collect(),
    );
    Json::obj()
        .with("passes", m.wall_s.len())
        .with("metrics", metrics)
        .with(
            "host_speed",
            summary_json(Some(Summary::of(&m.host_speed)), &m.host_speed),
        )
        .with("checks", checks_json(&m.checks))
        .with("paper_l_avg_rel_error", errors)
}

/// The result document of an untraced run: `workloads` maps each
/// workload name to its [`workload_json`] entry.
pub fn run_document(provenance: Json, golden: &str, workloads: Json) -> Json {
    Json::obj()
        .with("schema", SCHEMA)
        .with("kind", "run")
        .with("provenance", provenance)
        .with("golden", golden)
        .with("workloads", workloads)
}

fn checks_json(c: &Checks) -> Json {
    Json::obj()
        .with("attempted", c.attempted)
        .with("failed", c.failed)
        .with("fail_frac", c.fail_frac())
        .with(
            "failures",
            Json::Arr(c.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        )
}

/// The trace document: provenance, per-layer metrics, and the layer
/// self-time table (the spans themselves go to a separate JSONL file).
pub fn trace_document(provenance: Json, golden: &str, t: &Traced, spans_file: &str) -> Json {
    let metrics = Json::Obj(
        t.metrics
            .iter()
            .map(|m| {
                let entry = Json::obj()
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("better", layer_better(&m.name).as_str());
                (m.name.clone(), entry)
            })
            .collect(),
    );
    let layers = Json::Arr(
        layer_table(t.tracer.spans())
            .into_iter()
            .map(|(name, calls, total, own)| {
                Json::obj()
                    .with("span", name)
                    .with("calls", calls)
                    .with("total_s", total as f64 * 1e-9)
                    .with("self_s", own as f64 * 1e-9)
            })
            .collect(),
    );
    Json::obj()
        .with("schema", SCHEMA)
        .with("kind", "trace")
        .with("provenance", provenance)
        .with("golden", golden)
        .with("spans_file", spans_file)
        .with("metrics", metrics)
        .with("layers", layers)
        .with("checks", checks_json(&t.checks))
}

fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        "null".into()
    } else if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// Human-readable end-to-end table of one measured workload.
pub fn print_measured(m: &Measured) -> String {
    let mut s = format!("{} (timed passes: {})\n", m.name, m.wall_s.len());
    for def in &END_TO_END {
        let Some(sum) = m.summary(def.name) else {
            if def.name == "peak_rss_mb" {
                let _ = writeln!(
                    s,
                    "  {:<18} null {} (peak could not be reset)",
                    def.name, def.unit
                );
            }
            continue;
        };
        let _ = write!(
            s,
            "  {:<18} {:>12} {:<5}",
            def.name,
            fmt_num(sum.median),
            def.unit
        );
        if sum.n > 1 {
            let _ = write!(
                s,
                "  q1 {}  q3 {}  max {}  n={}",
                fmt_num(sum.q1),
                fmt_num(sum.q3),
                fmt_num(sum.max),
                sum.n
            );
        }
        if def.name == "fail_frac" {
            let _ = write!(
                s,
                "  ({} of {} checks failed)",
                m.checks.failed, m.checks.attempted
            );
        }
        s.push('\n');
    }
    let speed = Summary::of(&m.host_speed);
    let raw: Vec<f64> = m
        .wall_s
        .iter()
        .zip(&m.host_speed)
        .map(|(w, v)| w / v)
        .collect();
    let _ = writeln!(
        s,
        "  info: times above are at nominal host speed; measured host speed {:.3} \
         (q1 {:.3}, q3 {:.3}), raw wall_s median {} s",
        speed.median,
        speed.q1,
        speed.q3,
        fmt_num(Summary::of(&raw).median)
    );
    for f in &m.checks.failures {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    if !m.paper_errors.is_empty() {
        let mut by_table: Vec<(String, Vec<f64>)> = Vec::new();
        for (label, e) in &m.paper_errors {
            let table = label.split('/').nth(1).unwrap_or("?").to_string();
            match by_table.iter_mut().find(|(t, _)| *t == table) {
                Some((_, v)) => v.push(*e),
                None => by_table.push((table, vec![*e])),
            }
        }
        let all: Vec<f64> = m.paper_errors.iter().map(|p| p.1).collect();
        let _ = write!(
            s,
            "  info: mean relative L_avg error vs the paper {:.1}%;",
            100.0 * mean(&all)
        );
        for (t, v) in &by_table {
            let _ = write!(s, " {t} {:.1}%", 100.0 * mean(v));
        }
        s.push('\n');
    }
    s
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Human-readable per-layer table of a traced run.
pub fn print_traced(t: &Traced) -> String {
    let mut s = String::from("per-layer self time (span minus the part its children cover)\n");
    let _ = writeln!(
        s,
        "  {:<28} {:>7} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, calls, total, own) in layer_table(t.tracer.spans()) {
        let _ = writeln!(
            s,
            "  {name:<28} {calls:>7} {:>12.6} {:>12.6}",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
    s.push_str("per-layer metrics\n");
    for m in &t.metrics {
        let _ = writeln!(s, "  {:<40} {:>14} {}", m.name, fmt_num(m.value), m.unit);
    }
    let _ = writeln!(
        s,
        "checks: {} of {} failed",
        t.checks.failed, t.checks.attempted
    );
    for f in &t.checks.failures {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    s
}

/// The one-line summary a harness reads: correctness, check counts, and
/// each metric's value and unit.
pub fn result_line(checks: &Checks, metrics: &[(String, f64, &str)]) -> String {
    let m = Json::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj().with("value", *v).with("unit", *unit),
                )
            })
            .collect(),
    );
    Json::obj()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", m)
        .render()
}

/// The gated end-to-end metrics of one measured workload, for
/// [`result_line`].
pub fn gated_metrics(m: &Measured) -> Vec<(String, f64, &'static str)> {
    GATED
        .iter()
        .map(|&name| {
            let def = metric(name).expect("gated metrics are defined");
            let v = m.summary(name).map_or(f64::NAN, |s| s.median);
            (name.to_string(), v, def.unit)
        })
        .collect()
}

/// Compare run documents of a base commit with those of a head commit:
/// one row per (metric, workload), with each side's median and
/// quartiles, pairs won, and the verdict.
///
/// # Errors
///
/// Returns a message when a document is not a `run` result.
pub fn compare_documents(base: &[Json], head: &[Json]) -> Result<String, String> {
    for d in base.iter().chain(head) {
        if d.get("schema").and_then(Json::as_str) != Some(SCHEMA)
            || d.get("kind").and_then(Json::as_str) != Some("run")
        {
            return Err(format!("not a {SCHEMA} run document"));
        }
    }
    let mut out = format!(
        "{:<18} {:<15} {:>12} {:>23} {:>12} {:>23} {:>6}  verdict\n",
        "metric", "workload", "base", "base q1..q3", "head", "head q1..q3", "wins"
    );
    let values = |docs: &[Json], w: &str, m: &str| -> Vec<f64> {
        docs.iter()
            .filter_map(|d| {
                d.get("workloads")?
                    .get(w)?
                    .get("metrics")?
                    .get(m)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    };
    for def in &END_TO_END {
        for w in NAMES {
            let (b, h) = (values(base, w, def.name), values(head, w, def.name));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let c = compare(&b, &h, def.better, def.bound, def.floor);
            let _ = writeln!(
                out,
                "{:<18} {:<15} {:>12} {:>23} {:>12} {:>23} {:>6}  {}",
                def.name,
                w,
                fmt_num(c.base.median),
                format!("{}..{}", fmt_num(c.base.q1), fmt_num(c.base.q3)),
                fmt_num(c.head.median),
                format!("{}..{}", fmt_num(c.head.q1), fmt_num(c.head.q3)),
                format!("{}/{}", c.wins, c.pairs),
                c.verdict.as_str()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(scale: f64) -> Measured {
        Measured {
            name: "paper_tables",
            wall_s: vec![1.0 * scale, 1.1 * scale, 0.9 * scale],
            setup_s: vec![0.01, 0.011, 0.012],
            delivered_per_s: vec![5e5, 5.1e5, 4.9e5],
            node_cycles_per_s: vec![1e7, 1e7, 1e7],
            peak_rss_mb: Some(42.5),
            host_speed: vec![1.0, 0.9, 1.1],
            checks: Checks {
                attempted: 10,
                failed: 0,
                failures: Vec::new(),
            },
            paper_errors: vec![("paper_tables/t1/n10".into(), 0.02)],
        }
    }

    #[test]
    fn result_document_roundtrips_through_json() {
        let m = measured(1.0);
        let doc = run_document(
            Json::obj().with("seed", "0xfad2"),
            "none",
            Json::obj().with(m.name, workload_json(&m)),
        );
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        let wall = back
            .get("workloads")
            .and_then(|w| w.get("paper_tables"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("wall_s"))
            .unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.0));
        assert_eq!(wall.get("samples").map(|s| s.items().len()), Some(3));
    }

    #[test]
    fn compare_reads_documents_and_calls_regressions() {
        let doc = |s| {
            let m = measured(s);
            run_document(
                Json::obj(),
                "none",
                Json::obj().with(m.name, workload_json(&m)),
            )
        };
        let same = compare_documents(&[doc(1.0), doc(1.0)], &[doc(1.0), doc(1.0)]).unwrap();
        assert!(same.contains("wall_s"));
        assert!(!same.contains("regressed"));
        let slower = compare_documents(&[doc(1.0), doc(1.0)], &[doc(1.5), doc(1.5)]).unwrap();
        assert!(slower
            .lines()
            .any(|l| l.starts_with("wall_s") && l.ends_with("regressed")));
        assert!(compare_documents(&[Json::obj()], &[]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_harness_keys() {
        let m = measured(1.0);
        let line = result_line(&m.checks, &gated_metrics(&m));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, GATED);
    }
}
