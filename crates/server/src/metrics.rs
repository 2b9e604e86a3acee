//! Connection- and protocol-level counters for the wire server,
//! exported through `lf-metrics`' JSON and Prometheus formatters under
//! a `subsystem="server"` label.
//!
//! These sit one layer above `lf-async`'s [`ServiceMetrics`]: the
//! service layer counts ring traffic (enqueued/completed/shed), this
//! layer counts *sockets and commands* — connections accepted and
//! live, commands by outcome (ok / shed / rejected / error), parse
//! failures, and how deep clients pipeline.
//!
//! [`ServiceMetrics`]: lf_async::ServiceMetrics

use std::sync::atomic::{AtomicU64, Ordering};

use lf_metrics::export::{
    counter_prometheus, gauge_prometheus, histogram_json, histogram_prometheus_labeled, JsonObj,
};
use lf_metrics::{AtomicHistogram, Histogram};

/// The label every server series carries in the Prometheus exporter
/// (and the key its JSON object nests under).
pub const SERVER_LABEL: (&str, &str) = ("subsystem", "server");

/// Live wire-server counters. One per server; shared by the acceptor
/// and every connection thread.
#[derive(Default)]
pub struct ServerMetrics {
    accepted: AtomicU64,
    active: AtomicU64,
    commands: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    protocol_errors: AtomicU64,
    pipeline_depth: AtomicHistogram,
}

impl ServerMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A connection was accepted (bumps the active gauge too).
    pub(crate) fn conn_opened(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.accepted.fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection closed (any reason).
    pub(crate) fn conn_closed(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// `n` complete commands were parsed out of one socket read — the
    /// client's observed pipeline depth. Only the histogram lives
    /// here: `commands` is bumped by the per-outcome recorders so the
    /// identity `commands == ok + shed + rejected + errors` (DESIGN.md
    /// §9.9) holds by construction.
    pub(crate) fn record_pipeline(&self, n: u64) {
        self.pipeline_depth.record(n);
    }

    /// A command resolved successfully.
    pub(crate) fn record_ok(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.commands.fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.ok.fetch_add(1, Ordering::Relaxed);
    }

    /// A command resolved `-BUSY shed`.
    pub(crate) fn record_shed(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.commands.fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A command resolved `-BUSY rejected`.
    pub(crate) fn record_rejected(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.commands.fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A command resolved with an `-ERR` reply (bad arguments, retry
    /// budget exhausted, shutdown race, internal mismatch).
    pub(crate) fn record_error(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.commands.fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A frame failed to parse (the connection is then closed).
    pub(crate) fn record_protocol_error(&self) {
        // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A racy-fresh copy of every series (exact once the server has
    /// stopped and its threads are joined).
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            accepted: self.accepted.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            active: self.active.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            commands: self.commands.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            ok: self.ok.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            shed: self.shed.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            rejected: self.rejected.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            errors: self.errors.load(Ordering::Relaxed),
            // ord: Relaxed — SRV.stat: statistic counter, snapshots racy-fresh
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            pipeline_depth: self.pipeline_depth.load(),
        }
    }
}

/// A point-in-time copy of the server metrics.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections currently open (gauge).
    pub active: u64,
    /// Commands replied to, whatever the outcome: always exactly
    /// `ok + shed + rejected + errors`.
    pub commands: u64,
    /// Commands that resolved successfully.
    pub ok: u64,
    /// Commands resolved `-BUSY shed`.
    pub shed: u64,
    /// Commands resolved `-BUSY rejected`.
    pub rejected: u64,
    /// Commands resolved with an `-ERR` reply.
    pub errors: u64,
    /// Connections dropped for unparseable frames.
    pub protocol_errors: u64,
    /// Complete commands parsed per socket read.
    pub pipeline_depth: Histogram,
}

impl ServerSnapshot {
    /// One JSON object, nested under a `"server"` key so it composes
    /// with other subsystem snapshots on the same line.
    pub fn to_json(&self) -> String {
        let inner = JsonObj::new()
            .field_u64("accepted", self.accepted)
            .field_u64("active", self.active)
            .field_u64("commands", self.commands)
            .field_u64("ok", self.ok)
            .field_u64("shed", self.shed)
            .field_u64("rejected", self.rejected)
            .field_u64("errors", self.errors)
            .field_u64("protocol_errors", self.protocol_errors)
            .field_raw("pipeline_depth", &histogram_json(&self.pipeline_depth))
            .finish();
        JsonObj::new().field_raw("server", &inner).finish()
    }

    /// Prometheus text exposition: `lf_server_*` series, each labeled
    /// `subsystem="server"`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels = &[SERVER_LABEL];
        for (name, help, v) in [
            (
                "lf_server_connections_accepted_total",
                "TCP connections accepted since start",
                self.accepted,
            ),
            (
                "lf_server_commands_total",
                "Commands replied to (ok + shed + rejected + errors)",
                self.commands,
            ),
            (
                "lf_server_commands_ok_total",
                "Commands resolved successfully",
                self.ok,
            ),
            (
                "lf_server_commands_shed_total",
                "Commands resolved -BUSY shed",
                self.shed,
            ),
            (
                "lf_server_commands_rejected_total",
                "Commands resolved -BUSY rejected",
                self.rejected,
            ),
            (
                "lf_server_commands_error_total",
                "Commands resolved with an -ERR reply",
                self.errors,
            ),
            (
                "lf_server_protocol_errors_total",
                "Connections dropped for unparseable frames",
                self.protocol_errors,
            ),
        ] {
            counter_prometheus(&mut out, name, help, labels, v);
        }
        gauge_prometheus(
            &mut out,
            "lf_server_connections_active",
            "TCP connections currently open",
            labels,
            self.active,
        );
        histogram_prometheus_labeled(
            &mut out,
            "lf_server_pipeline_depth",
            "Complete commands parsed per socket read",
            labels,
            &self.pipeline_depth,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        let m = ServerMetrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.record_pipeline(4);
        m.record_ok();
        m.record_shed();
        m.record_rejected();
        m.record_error();
        m.record_protocol_error();
        let s = m.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.active, 1);
        // `commands` is bumped per outcome, so the §9.9 identity holds
        // by construction.
        assert_eq!(s.commands, 4);
        assert_eq!((s.ok, s.shed, s.rejected, s.errors), (1, 1, 1, 1));
        assert_eq!(s.commands, s.ok + s.shed + s.rejected + s.errors);
        assert_eq!(s.protocol_errors, 1);
        assert_eq!(s.pipeline_depth.count(), 1);
    }

    #[test]
    fn exports_carry_server_label() {
        let m = ServerMetrics::new();
        m.conn_opened();
        m.record_pipeline(2);
        let s = m.snapshot();
        let j = s.to_json();
        assert!(j.starts_with("{\"server\":{"), "{j}");
        assert!(j.contains("\"pipeline_depth\""));
        let p = s.to_prometheus();
        assert!(p.contains("lf_server_connections_accepted_total{subsystem=\"server\"} 1"));
        assert!(p.contains("lf_server_connections_active{subsystem=\"server\"} 1"));
        assert!(p.contains("lf_server_pipeline_depth{subsystem=\"server\",quantile=\"0.99\"}"));
        // No batch-controller series: the drain size is fixed per
        // service, and INFO reports it.
        assert!(!j.contains("ctl_"), "{j}");
        assert!(!p.contains("lf_server_controller_"), "{p}");
    }
}
