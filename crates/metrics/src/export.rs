//! Structured exporters for [`Telemetry`] snapshots.
//!
//! Two wire formats, both dependency-free:
//!
//! * **JSON lines** — one self-contained JSON object per snapshot,
//!   append-friendly, for machine-readable benchmark artifacts
//!   (`BENCH_*.json`) and soak-run logs. Built with [`JsonObj`], a
//!   tiny escaping-correct object writer (the build environment has no
//!   serde).
//! * **Prometheus text exposition** — counters for the scalar
//!   essential-step totals and `summary` blocks (quantile series +
//!   `_sum`/`_count`) for each histogram, suitable for a textfile
//!   collector or scrape endpoint.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

use lf_trace::json::write_escaped;

use crate::{CasType, Histogram, Metric, Structure, Telemetry};

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp to null like most serializers.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object writer.
///
/// # Examples
///
/// ```
/// use lf_metrics::export::JsonObj;
///
/// let line = JsonObj::new()
///     .field_str("experiment", "e4")
///     .field_u64("threads", 4)
///     .field_f64("throughput", 1.5e6)
///     .finish();
/// assert_eq!(line, r#"{"experiment":"e4","threads":4,"throughput":1500000}"#);
/// ```
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
        &mut self.buf
    }

    /// Add an unsigned integer field.
    pub fn field_u64(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field (non-finite values become `null`).
    pub fn field_f64(mut self, k: &str, v: f64) -> Self {
        let s = json_f64(v);
        self.key(k).push_str(&s);
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(mut self, k: &str, v: &str) -> Self {
        write_escaped(self.key(k), v);
        self
    }

    /// Add a field whose value is already serialized JSON.
    pub fn field_raw(mut self, k: &str, json: &str) -> Self {
        self.key(k).push_str(json);
        self
    }

    /// Close the object and return it as a single line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serialize one histogram's shape: count, mean, min/max, and the
/// p50/p90/p99/p999 tail.
pub fn histogram_json(h: &Histogram) -> String {
    JsonObj::new()
        .field_u64("count", h.count())
        .field_f64("mean", h.mean())
        .field_u64("min", h.min())
        .field_u64("p50", h.p50())
        .field_u64("p90", h.p90())
        .field_u64("p99", h.p99())
        .field_u64("p999", h.p999())
        .field_u64("max", h.max())
        .finish()
}

/// Serialize a full [`Telemetry`] snapshot as one JSON object:
/// scalar counters flattened, one nested object per [`Metric`].
pub fn telemetry_json(t: &Telemetry) -> String {
    let c = &t.counters;
    let mut obj = JsonObj::new()
        .field_u64("ops", c.ops)
        .field_u64("essential_steps", c.essential_steps())
        .field_f64("steps_per_op", c.steps_per_op())
        .field_u64("backlink_traversals", c.backlink_traversals)
        .field_u64("next_updates", c.next_updates)
        .field_u64("curr_updates", c.curr_updates);
    for ty in CasType::ALL {
        obj = obj
            .field_u64(&format!("cas_{}_ok", ty.label()), c.cas_ok[ty as usize])
            .field_u64(&format!("cas_{}_fail", ty.label()), c.cas_fail[ty as usize]);
    }
    for m in Metric::ALL {
        obj = obj.field_raw(m.label(), &histogram_json(t.histogram(m)));
    }
    let mut structures = JsonObj::new();
    for s in Structure::ALL {
        let entry = JsonObj::new()
            .field_u64("ops", c.ops_for(s))
            .field_raw("op_latency_ns", &histogram_json(t.structure_latency_ns(s)))
            .finish();
        structures = structures.field_raw(s.label(), &entry);
    }
    obj = obj.field_raw("structures", &structures.finish());
    obj.finish()
}

/// Render a [`Telemetry`] snapshot in Prometheus text exposition
/// format: `lf_*_total` counters for the scalars and a `summary` per
/// histogram (quantile series plus `_sum` and `_count`).
pub fn telemetry_prometheus(t: &Telemetry) -> String {
    let c = &t.counters;
    let mut out = String::new();
    let _ = writeln!(out, "# HELP lf_ops_total Completed dictionary operations");
    let _ = writeln!(out, "# TYPE lf_ops_total counter");
    let _ = writeln!(out, "lf_ops_total {}", c.ops);
    let _ = writeln!(
        out,
        "# HELP lf_cas_total CAS attempts by paper Def. 4 type and outcome"
    );
    let _ = writeln!(out, "# TYPE lf_cas_total counter");
    for ty in CasType::ALL {
        let _ = writeln!(
            out,
            "lf_cas_total{{type=\"{}\",outcome=\"ok\"}} {}",
            ty.label(),
            c.cas_ok[ty as usize]
        );
        let _ = writeln!(
            out,
            "lf_cas_total{{type=\"{}\",outcome=\"fail\"}} {}",
            ty.label(),
            c.cas_fail[ty as usize]
        );
    }
    for (name, help, v) in [
        (
            "lf_backlink_traversals_total",
            "Backlink pointer traversals",
            c.backlink_traversals,
        ),
        (
            "lf_next_updates_total",
            "next_node pointer updates",
            c.next_updates,
        ),
        (
            "lf_curr_updates_total",
            "curr_node pointer updates",
            c.curr_updates,
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    let _ = writeln!(
        out,
        "# HELP lf_structure_ops_total Completed operations by dictionary structure"
    );
    let _ = writeln!(out, "# TYPE lf_structure_ops_total counter");
    for s in Structure::ALL {
        let _ = writeln!(
            out,
            "lf_structure_ops_total{{structure=\"{}\"}} {}",
            s.label(),
            c.ops_for(s)
        );
    }
    for m in Metric::ALL {
        let name = format!("lf_{}", m.label());
        let help = format!("Per-operation {} distribution", m.label());
        histogram_prometheus(&mut out, &name, &help, t.histogram(m));
    }
    // Per-structure latency summaries carry the structure as a label so
    // a map and a skip list in one process scrape as distinct series.
    let _ = writeln!(
        out,
        "# HELP lf_structure_op_latency_ns Per-operation latency by dictionary structure"
    );
    let _ = writeln!(out, "# TYPE lf_structure_op_latency_ns summary");
    for s in Structure::ALL {
        let h = t.structure_latency_ns(s);
        for (q, v) in [
            ("0.5", h.p50()),
            ("0.9", h.p90()),
            ("0.99", h.p99()),
            ("0.999", h.p999()),
        ] {
            let _ = writeln!(
                out,
                "lf_structure_op_latency_ns{{structure=\"{}\",quantile=\"{q}\"}} {v}",
                s.label()
            );
        }
        let _ = writeln!(
            out,
            "lf_structure_op_latency_ns_sum{{structure=\"{}\"}} {}",
            s.label(),
            h.sum()
        );
        let _ = writeln!(
            out,
            "lf_structure_op_latency_ns_count{{structure=\"{}\"}} {}",
            s.label(),
            h.count()
        );
    }
    out
}

/// Append one named histogram to `out` in Prometheus text exposition
/// format as a `summary`: p50/p90/p99/p999 quantile series plus `_sum`
/// and `_count`. Shared by [`telemetry_prometheus`] and by subsystems
/// (e.g. `lf-async` service metrics) that export histograms outside the
/// fixed [`Metric`] set.
pub fn histogram_prometheus(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} summary");
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("0.999", h.p999()),
    ] {
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Render a Prometheus label set (`{k="v",…}`), empty for no labels.
/// Values are JSON-escaped, which covers Prometheus' `\\`/`"`/`\n`
/// requirements.
pub fn prometheus_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let mut label = format!("{k}=");
            write_escaped(&mut label, v);
            label
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Append one labeled counter in Prometheus text exposition format.
/// Subsystems outside the fixed [`Telemetry`] set (e.g. `lf-server`'s
/// connection counters, labeled `subsystem="server"`) export through
/// this so every series in a process shares one formatter.
pub fn counter_prometheus(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    v: u64,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name}{} {v}", prometheus_labels(labels));
}

/// Append one labeled gauge in Prometheus text exposition format.
pub fn gauge_prometheus(out: &mut String, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name}{} {v}", prometheus_labels(labels));
}

/// Labeled variant of [`histogram_prometheus`]: the label set rides on
/// every quantile series plus `_sum`/`_count`.
pub fn histogram_prometheus_labeled(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &Histogram,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} summary");
    let base = prometheus_labels(labels);
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("0.999", h.p999()),
    ] {
        let mut with_q: Vec<(&str, &str)> = labels.to_vec();
        with_q.push(("quantile", q));
        let _ = writeln!(out, "{name}{} {v}", prometheus_labels(&with_q));
    }
    let _ = writeln!(out, "{name}_sum{base} {}", h.sum());
    let _ = writeln!(out, "{name}_count{base} {}", h.count());
}

/// Append one JSON line to `path`, creating the file if needed.
pub fn append_json_line(path: &Path, line: &str) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Overwrite `path` with `contents` (plus a trailing newline).
pub fn write_artifact(path: &Path, contents: &str) -> io::Result<()> {
    std::fs::write(path, format!("{contents}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        let line = JsonObj::new().field_str("k\n", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, r#"{"k\n":"a\"b\\c\nd\u0001"}"#);
        assert_eq!(prometheus_labels(&[("l", "a\"b")]), r#"{l="a\"b"}"#);
    }

    #[test]
    fn json_obj_shape() {
        let s = JsonObj::new()
            .field_str("k", "v\"q")
            .field_u64("n", 7)
            .field_f64("bad", f64::NAN)
            .field_raw("nested", "{\"a\":1}")
            .finish();
        assert_eq!(
            s,
            "{\"k\":\"v\\\"q\",\"n\":7,\"bad\":null,\"nested\":{\"a\":1}}"
        );
    }

    #[test]
    fn histogram_json_has_tail_fields() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let j = histogram_json(&h);
        for key in [
            "\"count\":100",
            "\"p50\":",
            "\"p99\":",
            "\"p999\":",
            "\"max\":100",
        ] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }

    #[test]
    fn telemetry_formats_cover_all_metrics() {
        let t = Telemetry::default();
        let j = telemetry_json(&t);
        let p = telemetry_prometheus(&t);
        for m in Metric::ALL {
            assert!(j.contains(m.label()), "json missing {m}");
            assert!(p.contains(&format!("lf_{}", m.label())), "prom missing {m}");
        }
        for ty in CasType::ALL {
            assert!(j.contains(&format!("cas_{}_ok", ty.label())));
            assert!(p.contains(&format!("type=\"{}\"", ty.label())));
        }
        assert!(p.contains("# TYPE lf_ops_total counter"));
        assert!(p.contains("lf_op_latency_ns{quantile=\"0.99\"}"));
        for s in Structure::ALL {
            assert!(
                j.contains(&format!("\"{}\":{{\"ops\":", s.label())),
                "json missing structure {s}: {j}"
            );
            assert!(p.contains(&format!(
                "lf_structure_ops_total{{structure=\"{}\"}}",
                s.label()
            )));
            assert!(p.contains(&format!(
                "lf_structure_op_latency_ns{{structure=\"{}\",quantile=\"0.99\"}}",
                s.label()
            )));
        }
    }

    #[test]
    fn artifact_io_roundtrip() {
        let dir = std::env::temp_dir().join("lf_metrics_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.json");
        let _ = std::fs::remove_file(&path);
        append_json_line(&path, "{\"a\":1}").unwrap();
        append_json_line(&path, "{\"a\":2}").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"a\":1}\n{\"a\":2}\n");
        write_artifact(&path, "{\"b\":3}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"b\":3}\n");
        let _ = std::fs::remove_file(&path);
    }
}
