//! What a pass found, and its three renderings: the table for people,
//! the one-line result the driver reads, and the JSON document written
//! beside the traces.

use std::fmt::Write as _;

use lf_trace::json::write_escaped;

use crate::spec::{MetricDef, Sizes, END_TO_END, PER_LAYER};
use crate::stats::Host;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value was reduced from, where that is not
    /// obvious from the definition.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        // JSON has no NaN or infinity; a metric that is one measured nothing.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name,
            value,
            samples: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// One pass over one workload: measured (`traced` false, the
/// end-to-end metrics) or ledger (`traced` true, the per-layer ones).
#[derive(Clone, Debug)]
pub struct Pass {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
    /// Values worth printing that are not metrics of the contract.
    notes: Vec<Metric>,
}

/// Non-zero when any answer was wrong, refused or lost.
pub fn exit_code(correct: bool) -> u8 {
    u8::from(!correct)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

impl Pass {
    pub fn new(
        workload: &'static str,
        traced: bool,
        seed: u64,
        attempted: u64,
        failed: u64,
    ) -> Pass {
        Pass {
            workload,
            traced,
            seed,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push(Metric::new(name, value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The pass's metrics in the order of its table, each with its
    /// definition. A metric of the table the pass did not produce is a
    /// bug in the harness.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static MetricDef, &Metric)> {
        self.table().iter().map(|def| {
            let m = self.metrics.iter().find(|m| m.name == def.name);
            (
                def,
                m.unwrap_or_else(|| panic!("{} was not measured", def.name)),
            )
        })
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .chain(&self.notes)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} was not measured"))
            .value
    }

    /// Every metric by name with its unit, then the notes.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "== {} · {} · seed {} · {} attempted, {} failed ==\n",
            self.workload,
            if self.traced {
                "ledger pass (traced)"
            } else {
                "measured pass (untraced)"
            },
            self.seed,
            self.attempted,
            self.failed
        );
        for (def, m) in self.metrics() {
            let _ = write!(
                out,
                "{:<32} {:>16.3} {:<6} {} is better",
                def.name,
                m.value,
                def.unit,
                def.better.label()
            );
            if let Some(bound) = def.bound {
                let _ = write!(out, ", bound {:.0}%", bound * 100.0);
            }
            if let Some(n) = m.samples {
                let _ = write!(out, ", n={n}");
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "{:<32} {:>16.3} (note)", n.name, n.value);
        }
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics()
            .map(|(def, m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(def.name),
                    m.value,
                    json_str(def.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result with what is needed to read it later: seed, sizes,
    /// window, host, sample counts and notes.
    pub fn document(&self, host: &Host, sizes: Sizes, seconds: f64) -> String {
        let extras = |ms: &mut dyn Iterator<Item = (&str, f64)>| {
            let fields: Vec<String> = ms.map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
            format!("{{{}}}", fields.join(", "))
        };
        let samples = extras(
            &mut self
                .metrics
                .iter()
                .filter_map(|m| Some((m.name, m.samples? as f64))),
        );
        let notes = extras(&mut self.notes.iter().map(|m| (m.name, m.value)));
        format!(
            "{{\"workload\": {}, \"traced\": {}, \"seed\": {}, \"sizes\": {}, \"seconds\": {}, \
             \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}}}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
             \"samples\": {}, \"notes\": {}}}\n",
            json_str(self.workload),
            self.traced,
            self.seed,
            json_str(sizes.label()),
            seconds,
            host.nproc,
            json_str(&host.cpu_model),
            json_str(&host.kernel),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(),
            samples,
            notes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_trace::json::{self, Value};

    fn sample_pass() -> Pass {
        let mut p = Pass::new("wire_pipe", false, 7, 1000, 0);
        for (i, def) in END_TO_END.iter().enumerate() {
            p.push(Metric::new(def.name, 1234.5678 * (i + 1) as f64).samples(i));
        }
        p.note("harness.seg_spread", f64::NAN);
        p
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let p = sample_pass();
        let v = json::parse(&p.result_line()).expect("result line parses");
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1000));
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (i, def) in END_TO_END.iter().enumerate() {
            let m = &metrics[def.name];
            assert_eq!(
                m.get("value").and_then(Value::as_num),
                Some(1234.5678 * (i + 1) as f64)
            );
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
        assert!(!p.result_line().contains('\n'));
    }

    #[test]
    fn document_round_trips_through_the_lf_trace_parser() {
        let host = Host {
            nproc: 2,
            cpu_model: "Model \"quoted\" \\ name".into(),
            kernel: "6.1\n".into(),
        };
        let v = json::parse(&sample_pass().document(&host, Sizes::Quick, 2.0))
            .expect("document parses");
        assert_eq!(v.get("sizes").and_then(Value::as_str), Some("quick"));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(7));
        let h = v.get("host").unwrap();
        assert_eq!(
            h.get("cpu_model").and_then(Value::as_str),
            Some(host.cpu_model.as_str())
        );
        assert_eq!(h.get("kernel").and_then(Value::as_str), Some("6.1\n"));
        // NaN cannot be written; it is recorded as 0.
        let notes = v.get("notes").unwrap();
        assert_eq!(
            notes.get("harness.seg_spread").and_then(Value::as_num),
            Some(0.0)
        );
        assert_eq!(
            v.get("samples")
                .unwrap()
                .get("setup_s")
                .and_then(Value::as_u64),
            Some(4)
        );
    }

    #[test]
    fn a_failed_pass_is_incorrect_and_exits_non_zero() {
        let mut p = sample_pass();
        assert_eq!(exit_code(p.correct()), 0);
        p.failed = 1;
        assert!(p.result_line().starts_with("{\"correct\": false"));
        assert_ne!(exit_code(p.correct()), 0);
        assert!(
            !Pass::new("x", true, 0, 0, 0).correct(),
            "nothing attempted is not correct"
        );
    }
}
