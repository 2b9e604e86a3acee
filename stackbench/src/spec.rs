//! What the benchmark measures: the pinned configuration, the five
//! workloads and the metric tables. `BENCHMARK.json` at the repository
//! root states the same workloads and metrics; a test keeps the two in
//! step.

use std::time::Duration;

/// Keys are `0..KEY_SPACE`, rendered as `KEY_LEN` decimal digits.
pub const KEY_SPACE: u32 = 65_536;
pub const KEY_LEN: usize = 12;
pub const VALUE_LEN: usize = 64;
/// Generator threads (and wire connections). Equal to `nproc` on the
/// reference host; with `LANE_WORKERS` = 1 this repeats within ±2 %,
/// with two workers the spread is ±12 % (README, "Sandbox findings").
pub const GENERATORS: usize = 2;
pub const LANE_WORKERS: usize = 1;
pub const QUEUE_CAPACITY: usize = 1024;
pub const BATCH_MAX: usize = 64;
pub const SHARDS: usize = 8;
pub const BUCKETS_PER_SHARD: usize = 1024;
pub const READ_TIMEOUT: Duration = Duration::from_millis(50);
pub const SCAN_COUNT: usize = 32;
/// Calls timed together on the direct front: one ~200 ns call timed
/// alone reads as the same integer on every run.
pub const DIRECT_GROUP: usize = 16;
/// The measured window is cut into this many segments; throughput and
/// p99 are medians over them.
pub const SEGMENTS: usize = 16;
/// Share of `--seconds` spent warming up before the measured window.
pub const WARMUP_SHARE: f64 = 0.2;
pub const SETUP_REPS: usize = 5;
pub const RUN_SECONDS: f64 = 20.0;
pub const QUICK_SECONDS: f64 = 2.0;

/// Operation counts of the ledger pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizes {
    Full,
    Quick,
}

impl Sizes {
    pub fn label(self) -> &'static str {
        match self {
            Sizes::Full => "full",
            Sizes::Quick => "quick",
        }
    }

    /// Operations replayed through every boundary.
    pub fn ledger_ops(self) -> usize {
        match self {
            Sizes::Full => 200_000,
            Sizes::Quick => 20_000,
        }
    }

    /// Operations of the depth-1 round-trip stages (each costs a
    /// hypervisor wake-up, 20–110 µs).
    pub fn rtt1_ops(self) -> usize {
        self.ledger_ops() / 10
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// RESP over loopback TCP into `lf-server`.
    Wire,
    /// Futures submitted to `lf-async`'s `Service`.
    Async,
    /// Per-thread handles of the sharded structure.
    Direct,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierKind {
    /// `ShardedMap`: 8 shards × 1024 FR-list buckets.
    Map,
    /// `ShardedSkipList`: 8 skip lists.
    Skip,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyShape {
    Zipfian,
    Uniform,
}

/// Percentages; they total 100. `set` is an upsert on the wire and
/// async fronts and an insert (refused on a duplicate) on the direct
/// front.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    pub get: u8,
    pub set: u8,
    pub del: u8,
    pub scan: u8,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub front: Front,
    pub tier: TierKind,
    pub keys: KeyShape,
    pub mix: OpMix,
    /// Operations in flight per generator: commands per burst, futures
    /// per window, calls per timed group.
    pub depth: usize,
}

const POINT_READ: OpMix = OpMix {
    get: 80,
    set: 10,
    del: 10,
    scan: 0,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire_pipe",
        why: "bursts of 32 point commands amortise syscalls, so lf-server's and lf-async's per-command path does most of the work and lf-core under a tenth",
        front: Front::Wire,
        tier: TierKind::Map,
        keys: KeyShape::Zipfian,
        mix: POINT_READ,
        depth: 32,
    },
    Workload {
        name: "wire_scan",
        why: "the only wire path through the paper's skip list: SCAN pages, large array replies and merged_range beside point commands",
        front: Front::Wire,
        tier: TierKind::Skip,
        keys: KeyShape::Uniform,
        mix: OpMix {
            get: 50,
            set: 15,
            del: 15,
            scan: 20,
        },
        depth: 16,
    },
    Workload {
        name: "async_window",
        why: "no sockets: lf-async does most of the work and lf-server none, so a server-only change must not move it",
        front: Front::Async,
        tier: TierKind::Map,
        keys: KeyShape::Zipfian,
        mix: POINT_READ,
        depth: 32,
    },
    Workload {
        name: "direct_map_read",
        why: "no serving layers: lf-core list ops, lf-map and lf-shard routing and the lf-reclaim pin are all of the work",
        front: Front::Direct,
        tier: TierKind::Map,
        keys: KeyShape::Zipfian,
        mix: POINT_READ,
        depth: DIRECT_GROUP,
    },
    Workload {
        name: "direct_skip_update",
        why: "writes beside reads on the skip list: tower allocation, flag-mark-unlink CASes and retire/collect, where a read-path gain can cost updates",
        front: Front::Direct,
        tier: TierKind::Skip,
        keys: KeyShape::Uniform,
        mix: OpMix {
            get: 20,
            set: 40,
            del: 40,
            scan: 0,
        },
        depth: DIRECT_GROUP,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The bounds are the widest the contract allows. Sets of ten runs on
/// the reference sandbox spread (IQR ÷ median) by 5–24 % on every timing
/// of every workload, once by 32 %: the host is slower or faster for
/// minutes at a time, so a tighter bound would reject the benchmark
/// against itself (README, "Observed spread").
pub const END_TO_END: [MetricDef; 5] = [
    gated("ops_per_s", "ops/s", Better::Higher, 0.25),
    gated("lat_p50_ns", "ns", Better::Lower, 0.25),
    gated("lat_p99_ns", "ns", Better::Lower, 0.25),
    gated("cpu_ns_per_op", "ns", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Ordered outside-in: harness, server, async façade, routing, the
/// paper's structures, reclamation, instruments.
pub const PER_LAYER: [MetricDef; 35] = [
    layer("workloads.gen_ns_per_op", "ns", Lower),
    layer("server.parse_ns_per_cmd", "ns", Lower),
    layer("server.render_ns_per_reply", "ns", Lower),
    layer("server.bytes_out_per_cmd", "B", Lower),
    layer("server.wire1_ns_per_cmd", "ns", Lower),
    layer("server.conn_ns_per_cmd", "ns", Lower),
    layer("server.cmds_per_read", "count", Higher),
    layer("server.rtt1_p50_ns", "ns", Lower),
    layer("server.busy", "count", Lower),
    layer("server.errors", "count", Lower),
    layer("async.submit_ns", "ns", Lower),
    layer("async.window_ns_per_op", "ns", Lower),
    layer("async.facade_ns_per_op", "ns", Lower),
    layer("async.e2c_p50_ns", "ns", Lower),
    layer("async.e2c_p99_ns", "ns", Lower),
    layer("async.queue_depth_p99", "count", Lower),
    layer("async.batch_size_mean", "count", Higher),
    layer("async.rtt1_p50_ns", "ns", Lower),
    layer("shard.route_ns", "ns", Lower),
    layer("map.bucket_of_ns", "ns", Lower),
    layer("shard.max_ops_share", "ratio", Lower),
    layer("core.get_ns", "ns", Lower),
    layer("core.insert_ns", "ns", Lower),
    layer("core.remove_ns", "ns", Lower),
    layer("core.scan_ns", "ns", Lower),
    layer("core.op_ns", "ns", Lower),
    layer("core.steps_per_op", "count", Lower),
    layer("core.search_hops_p50", "count", Lower),
    layer("core.cas_fail_share", "ratio", Lower),
    layer("reclaim.pin_ns", "ns", Lower),
    layer("reclaim.peak_unreclaimed", "count", Lower),
    layer("harness.rss_mb", "MB", Lower),
    layer("metrics.hist_overhead_share", "ratio", Lower),
    layer("ledger.closure_share", "ratio", Higher),
    layer("harness.trace_overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use lf_trace::json::{self, Value};

    /// The contract's name rule: starts with a letter or digit, at most
    /// 64 of letters, digits, `_`, `.` and `-`.
    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let m = w.mix;
            assert_eq!(
                m.get as u16 + m.set as u16 + m.del as u16 + m.scan as u16,
                100
            );
        }
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok(""));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly
    /// what this crate prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = field(&doc, "workloads").as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_str(), Some(w.name));
            assert_eq!(field(j, "why").as_str(), Some(w.why));
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = field(&doc, key).as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name").as_str(), Some(m.name));
                assert_eq!(field(j, "unit").as_str(), Some(m.unit));
                assert_eq!(field(j, "better").as_str(), Some(m.better.label()));
                assert_eq!(
                    j.get("bound").and_then(Value::as_num),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        assert_eq!(field(&doc, "run_seconds").as_num(), Some(RUN_SECONDS));
    }
}
