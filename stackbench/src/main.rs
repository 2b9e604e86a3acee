//! `stackbench`: one benchmark from the RESP socket to the winning CAS.
//!
//! ```text
//! stackbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! stackbench aa  [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! `run` performs the measured pass (`--trace 0`), the ledger pass
//! (`--trace 1`) or, with no `--trace`, both — for one workload or, with
//! no `--workload`, all five. After each pass it prints every metric by
//! name with its unit, then one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`; the same goes to `<out>/result-*.json`. `aa`
//! runs every measured pass twice on this binary and fails if any
//! end-to-end metric differs by more than its own bound. The process
//! exits non-zero if any answer was wrong, refused or lost.

mod front;
mod gen;
mod ledger;
mod report;
mod run;
mod spec;
mod stats;
mod tier;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lf_shard::{ShardedMap, ShardedSkipList};

use gen::Bytes;
use report::Pass;
use spec::{Better, Sizes, TierKind, Workload, END_TO_END, QUICK_SECONDS, RUN_SECONDS, WORKLOADS};
use stats::Host;
use tier::Tier;

struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` measured pass only, `Some(true)` ledger pass only.
    trace: Option<bool>,
    out: PathBuf,
    sizes: Sizes,
}

const USAGE: &str = "usage: stackbench run|aa [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or(USAGE)?;
    if command != "run" && command != "aa" {
        return Err(format!("unknown command '{command}'\n{USAGE}"));
    }
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: None,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        sizes: Sizes::Full,
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.sizes = Sizes::Quick;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(spec::workload(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 60.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = match args.sizes {
            Sizes::Full => RUN_SECONDS,
            Sizes::Quick => QUICK_SECONDS,
        };
    }
    if args.command == "aa" && args.sizes == Sizes::Quick {
        return Err("aa compares full-size runs; --quick is for smoke use only".into());
    }
    Ok(args)
}

fn pass_on<T: Tier>(w: &Workload, traced: bool, args: &Args) -> std::io::Result<Pass> {
    if traced {
        ledger::ledger::<T>(w, args.seed, args.sizes, &args.out)
    } else {
        run::measure::<T>(w, args.seed, args.seconds)
    }
}

/// One pass of one workload on its tier; prints and stores the result.
fn pass(w: &Workload, traced: bool, args: &Args, host: &Host) -> std::io::Result<Pass> {
    let pass = match w.tier {
        TierKind::Map => pass_on::<ShardedMap<Bytes, Bytes>>(w, traced, args),
        TierKind::Skip => pass_on::<ShardedSkipList<Bytes, Bytes>>(w, traced, args),
    }?;
    std::fs::create_dir_all(&args.out)?;
    let file = format!("result-{}-trace{}.json", w.name, traced as u8);
    std::fs::write(
        args.out.join(file),
        pass.document(host, args.sizes, args.seconds),
    )?;
    println!("-- {}: {}", w.name, w.why);
    print!("{}", pass.render_table());
    println!("{}", pass.result_line());
    Ok(pass)
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    args.workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

fn run(args: &Args, host: &Host) -> std::io::Result<bool> {
    let mut correct = true;
    // Every measured pass first, so no ledger pass warms or fragments
    // the process they run in.
    for traced in [false, true] {
        if args.trace.is_some_and(|only| only != traced) {
            continue;
        }
        for w in selected(args) {
            correct &= pass(w, traced, args, host)?.correct();
        }
    }
    Ok(correct)
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn aa(args: &Args, host: &Host) -> std::io::Result<bool> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in selected(args) {
            set.push(pass(w, false, args, host)?);
        }
        sets.push(set);
    }
    let mut agree = true;
    println!("== A/A: the same binary twice, seed {} ==", args.seed);
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        agree &= a.correct() && b.correct();
        for def in &END_TO_END {
            let (va, vb) = (a.value(def.name), b.value(def.name));
            let diff = worsening(def.better, va, vb).abs();
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let verdict = if diff <= bound { "ok" } else { "DIFFERS" };
            agree &= diff <= bound;
            println!(
                "{:<20} {:<14} {:>14.3} {:>14.3}  differ {:>6.2}%, bound {:>3.0}%  {verdict}",
                a.workload,
                def.name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    println!(
        "stackbench {} · seed {} · {} s · sizes {} · host: {} × {} · kernel {}",
        args.command,
        args.seed,
        args.seconds,
        args.sizes.label(),
        host.nproc,
        host.cpu_model,
        host.kernel
    );
    let outcome = match args.command.as_str() {
        "aa" => aa(&args, &host),
        _ => run(&args, &host),
    };
    match outcome {
        Ok(good) => ExitCode::from(report::exit_code(good)),
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse("run --workload wire_scan --seed 42 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "wire_scan");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.sizes),
            (42, 15.0, Some(true), Sizes::Full)
        );
        let q = parse("run --quick").unwrap();
        assert_eq!(
            (q.seconds, q.sizes, q.trace),
            (QUICK_SECONDS, Sizes::Quick, None)
        );
        assert!(q.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "bench",
            "run --workload nope",
            "run --seed x",
            "run --trace 2",
            "run --seconds 0",
            "run --frob 1",
            "run --seed",
            "aa --quick",
        ] {
            assert!(parse(line).is_err(), "{line:?} accepted");
        }
    }

    /// The real stack, small: both passes are correct, every metric of
    /// the tables is produced, and the byte and command counts of the
    /// ledger pass repeat exactly for one seed. (On the skip tier, used
    /// here because it builds fast unoptimised, `core.steps_per_op` does
    /// not: `lf-core` draws tower heights from a time-seeded generator.)
    #[test]
    fn both_passes_run_correct_and_counts_repeat() {
        type Skip = ShardedSkipList<Bytes, Bytes>;
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let w = spec::workload("wire_scan").unwrap();
        let a = ledger::ledger::<Skip>(w, 5, Sizes::Quick, &out).unwrap();
        let b = ledger::ledger::<Skip>(w, 5, Sizes::Quick, &out).unwrap();
        assert!(a.correct() && b.correct(), "{}", a.render_table());
        assert_eq!(a.metrics().count(), spec::PER_LAYER.len());
        for exact in [
            "server.bytes_out_per_cmd",
            "server.cmds_per_read",
            "ledger.spans",
        ] {
            assert_eq!(a.value(exact), b.value(exact), "{exact}");
        }
        assert!(out.join("trace-wire_scan.jsonl").metadata().unwrap().len() > 0);

        let m = run::measure::<Skip>(w, 5, 1.0).unwrap();
        assert!(m.correct(), "{}", m.render_table());
        assert!(
            m.metrics().all(|(_, metric)| metric.value > 0.0),
            "{}",
            m.render_table()
        );
    }

    #[test]
    fn worsening_has_a_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }
}
