//! Wire smoke client: hammer a running `lf-server` with pipelined RESP
//! commands and verify the accounting contract — every command sent
//! resolves as exactly one of ok / `-BUSY shed` / `-BUSY rejected`.
//!
//! ```text
//! resp_smoke <host:port> [--ops N] [--burst B] [--shutdown]
//!     --ops N      commands to send (default 50000)
//!     --burst B    pipeline depth per write (default 64)
//!     --shutdown   send SHUTDOWN when done (server must allow it)
//! ```
//!
//! Exits nonzero if any reply is missing, any command resolves as an
//! unexpected error, the server's `INFO` counters disagree with the
//! client-side tallies, or — once every reply is in — the service's
//! counters break `enqueued == completed + shed` or show no pipeline
//! run inline (`0 < inline <= enqueued`). This is the blocking
//! `server-smoke` CI check.

use std::net::SocketAddr;
use std::process::ExitCode;

use lf_bench::resp_client::{run_open_loop, OpenLoopConfig, RespClient};
use lf_server::resp::{self, Reply};
use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};

fn parse_flag(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args
        .iter()
        .find(|a| !a.starts_with("--") && a.contains(':'))
        .and_then(|a| a.parse::<SocketAddr>().ok())
    else {
        eprintln!("usage: resp_smoke <host:port> [--ops N] [--burst B] [--shutdown]");
        return ExitCode::FAILURE;
    };
    let ops = parse_flag(&args, "--ops", 50_000);
    let burst = parse_flag(&args, "--burst", 64) as usize;
    let shutdown = args.iter().any(|a| a == "--shutdown");

    let mut w = WorkloadIter::new(
        Mix::READ_HEAVY,
        KeyDist::Uniform { space: 4_096 },
        0x5340_4B45,
    );
    let tally = match run_open_loop(
        &OpenLoopConfig {
            addr,
            ops,
            rate: None,
            burst,
        },
        |i, buf| {
            let op = w.next_op();
            let key = format!("{:012}", op.key);
            match op.kind {
                OpKind::Search => resp::write_command(buf, &[b"GET", key.as_bytes()]),
                // Unique SET keys: an in-flight duplicate would spend
                // its retry budget and muddy the exact accounting this
                // smoke exists to verify.
                OpKind::Insert => {
                    let key = format!("smoke-{i:012}");
                    resp::write_command(buf, &[b"SET", key.as_bytes(), b"v"]);
                }
                OpKind::Remove => resp::write_command(buf, &[b"DEL", key.as_bytes()]),
            }
        },
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "sent {} | ok {} | shed {} | rejected {} | errors {} | {} kops/s | sock p99 {} us",
        tally.sent,
        tally.ok,
        tally.shed,
        tally.rejected,
        tally.errors,
        (tally.ok as f64 / tally.wall.as_secs_f64().max(1e-9) / 1e3).round(),
        tally.socket_ns.p99() / 1_000,
    );
    if tally.sent != ops || tally.errors != 0 {
        eprintln!(
            "FAIL: accounting broken (sent {} of {ops}, errors {})",
            tally.sent, tally.errors
        );
        return ExitCode::FAILURE;
    }
    if tally.ok + tally.shed + tally.rejected != tally.sent {
        eprintln!("FAIL: sent != ok + shed + rejected");
        return ExitCode::FAILURE;
    }

    // Cross-check the server's own view over the control path.
    let mut ctl = match RespClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL: INFO connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ctl.roundtrip(&[b"INFO"]) {
        Ok(Reply::Bulk(Some(text))) => {
            let text = String::from_utf8_lossy(&text).to_string();
            let field = |name: &str| -> u64 {
                text.lines()
                    .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(':')))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(u64::MAX)
            };
            // ≥: the INFO connection itself and any earlier traffic also
            // count server-side; the smoke's commands must all be there.
            let (ok, shed, rejected) = (
                field("commands_ok"),
                field("commands_shed"),
                field("commands_rejected"),
            );
            if ok < tally.ok || shed < tally.shed || rejected < tally.rejected {
                eprintln!(
                    "FAIL: server counters ({ok}/{shed}/{rejected}) below client tallies \
                     ({}/{}/{})",
                    tally.ok, tally.shed, tally.rejected
                );
                return ExitCode::FAILURE;
            }
            // Every reply is in, so the service is quiescent: each
            // request it admitted (queued or run inline) completed or
            // was shed, and an idle lane ran some pipelines inline.
            let (enqueued, inline, completed, svc_shed) = (
                field("enqueued"),
                field("inline"),
                field("completed"),
                field("shed"),
            );
            println!("service: enqueued {enqueued} | inline {inline} | completed {completed} | shed {svc_shed}");
            if inline == 0 || inline > enqueued {
                eprintln!("FAIL: inline {inline} not in 1..={enqueued}");
                return ExitCode::FAILURE;
            }
            if enqueued != completed.saturating_add(svc_shed) {
                eprintln!("FAIL: enqueued {enqueued} != completed {completed} + shed {svc_shed}");
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("FAIL: INFO gave {other:?}");
            return ExitCode::FAILURE;
        }
    }
    if shutdown {
        match ctl.roundtrip(&[b"SHUTDOWN"]) {
            Ok(Reply::Simple(s)) if s == b"OK" => {}
            other => {
                eprintln!("FAIL: SHUTDOWN gave {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("smoke OK");
    ExitCode::SUCCESS
}
